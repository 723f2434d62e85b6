(* Stateless small-scope model checker over the real simulated stack.

   The simulation is deterministic except for one thing: the order in
   which events that tie at the same timestamp commit (and, under a
   fault plan, each message copy's fate).  The engine's choice hook
   (Lcm_sim.Engine.set_choice_hook) exposes exactly that nondeterminism,
   so enumerating tie-break choices enumerates every behaviour the
   bounded configuration can exhibit.  Exploration is stateless DFS over
   forced-choice prefixes (Verisoft-style): each run replays a prefix of
   recorded choices and defaults (index 0 = FIFO) beyond it, then pushes
   un-explored alternatives of every choice point past the prefix.

   Partial-order reduction is a persistent-set heuristic keyed on the
   events' ownership footprint (the node a delivery/timer/resume belongs
   to): at a choice point, an alternative i needs its own branch only if
   it conflicts with some earlier candidate j < i — two events with
   distinct known owners touch disjoint per-node state and commute, so
   running i before j reaches the same state as j before i and is covered
   by the canonical order.  An unknown owner (-1) conservatively
   conflicts with everything.  Owner-level footprints subsume
   block-level ones here: two events at the *same* node always conflict
   (they serialize through the node's handler occupancy and local cache
   state) whatever blocks they touch, and events at different nodes
   touch disjoint node state.

   The reduction only prunes *branching*, never changes which event a
   given schedule executes, so a recorded schedule replays identically
   with reduction on or off, and --no-reduce cross-checks the pruned
   exploration against full enumeration on tiny configurations. *)

module Stress = Lcm_harness.Stress
module Machine = Lcm_tempest.Machine
module Policy = Lcm_core.Policy
module Barrier = Lcm_core.Barrier
module Reduction = Lcm_core.Reduction
module Gmem = Lcm_mem.Gmem
module Topology = Lcm_net.Topology
module Network = Lcm_net.Network
module Faults = Lcm_net.Faults
module Engine = Lcm_sim.Engine
module Rng = Lcm_util.Rng

(* ------------------------------------------------------------------ *)
(* Statistics (reported as check.* counters)                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable schedules : int;  (* complete interleavings executed *)
  mutable transitions : int;  (* events committed across all runs *)
  mutable choice_points : int;  (* decision points with >= 2 candidates *)
  mutable branches : int;  (* alternatives pushed for later exploration *)
  mutable sleep_prunes : int;  (* always 0; lcmbench still sums it *)
  mutable pset_prunes : int;  (* alternatives suppressed as independent *)
  mutable fault_points : int;  (* per-copy fault decision points *)
  mutable max_depth : int;  (* deepest choice position seen *)
}

let fresh_stats () =
  {
    schedules = 0;
    transitions = 0;
    choice_points = 0;
    branches = 0;
    sleep_prunes = 0;
    pset_prunes = 0;
    fault_points = 0;
    max_depth = 0;
  }

let pp_stats ppf st =
  Format.fprintf ppf
    "check.schedules %d@.check.transitions %d@.check.choice_points \
     %d@.check.branches %d@.check.sleep_prunes %d@.check.pset_prunes \
     %d@.check.fault_points %d@.check.max_depth %d"
    st.schedules st.transitions st.choice_points st.branches st.sleep_prunes
    st.pset_prunes st.fault_points st.max_depth

(* ------------------------------------------------------------------ *)
(* The per-run choice controller                                       *)
(* ------------------------------------------------------------------ *)

(* A run replaying a stale schedule (a hand-written one, or one the
   shrinker mutated) can find fewer candidates than an entry asks for,
   or fewer decision points than it has entries; that run proves
   nothing and is discarded. *)
exception Diverged

(* One recorded decision point of one run. *)
type point = {
  pt_chosen : int;
  pt_alts : int list;  (* candidate indices still worth exploring *)
}

type ctl = {
  forced : int array;
  c_stats : stats;
  reduce : bool;
  dup : bool;
  faulty : bool;
  mutable budget : int;  (* remaining non-Deliver fault choices *)
  mutable depth : int;
  mutable points : point list;  (* reversed *)
}

let make_ctl ~forced ~fault_budget ~dup ~reduce ~stats =
  {
    forced;
    c_stats = stats;
    reduce;
    dup;
    faulty = fault_budget > 0;
    budget = fault_budget;
    depth = 0;
    points = [];
  }

(* Two events conflict unless both owners are known and distinct. *)
let conflict a b = a < 0 || b < 0 || a = b

(* The engine's choice hook: called with the owners of two or more tied
   events, each call one recorded decision point. *)
let on_tie ctl (owners : int array) =
  let st = ctl.c_stats in
  let n = Array.length owners in
  let pos = ctl.depth in
  let chosen = if pos < Array.length ctl.forced then ctl.forced.(pos) else 0 in
  if chosen >= n then raise Diverged;
  st.choice_points <- st.choice_points + 1;
  if pos + 1 > st.max_depth then st.max_depth <- pos + 1;
  (* Alternatives worth a branch of their own: the persistent-set
     heuristic keeps i only when it conflicts with an earlier
     candidate. *)
  let alts = ref [] in
  for i = n - 1 downto 0 do
    if i <> chosen then begin
      let dependent =
        (not ctl.reduce)
        ||
        let dep = ref false in
        for j = 0 to i - 1 do
          if conflict owners.(j) owners.(i) then dep := true
        done;
        !dep
      in
      if dependent then alts := i :: !alts
      else st.pset_prunes <- st.pset_prunes + 1
    end
  done;
  ctl.points <- { pt_chosen = chosen; pt_alts = !alts } :: ctl.points;
  ctl.depth <- pos + 1;
  chosen

(* The network's per-copy fate oracle.  Whether a copy is a decision
   point depends only on the remaining budget, itself a deterministic
   function of the choices so far — so replays reproduce the same
   decision positions.  Out of budget, every copy delivers silently. *)
let on_fault ctl () =
  if ctl.budget <= 0 then Network.Deliver
  else begin
    let st = ctl.c_stats in
    let n = if ctl.dup then 3 else 2 in
    let pos = ctl.depth in
    let chosen = if pos < Array.length ctl.forced then ctl.forced.(pos) else 0 in
    if chosen >= n then raise Diverged;
    st.fault_points <- st.fault_points + 1;
    if pos + 1 > st.max_depth then st.max_depth <- pos + 1;
    let alts = List.filter (fun i -> i <> chosen) (List.init n Fun.id) in
    ctl.points <- { pt_chosen = chosen; pt_alts = alts } :: ctl.points;
    ctl.depth <- pos + 1;
    if chosen > 0 then ctl.budget <- ctl.budget - 1;
    match chosen with 0 -> Network.Deliver | 1 -> Network.Drop | _ -> Network.Dup
  end

(* ------------------------------------------------------------------ *)
(* Executing one schedule of one configuration                         *)
(* ------------------------------------------------------------------ *)

(* Run one schedule of [prog] under the controller through the stress
   harness's runner: every load against the spec's prediction, every
   post-segment word against the spec's state, and the protocol
   invariants after every segment.  [expect] is [Stress.spec prog],
   computed once per configuration.  [Diverged] from the hooks is not a
   verdict and propagates. *)
let run_prog ?(trace = false) (prog : Stress.prog) ~expect ~ctl =
  let faults =
    if ctl.faulty then
      (* zero-probability plan: the RSM rides the reliable envelope
         (acks, dedup, retransmission timers) and the fate oracle
         owns every copy's fault decision *)
      Some (Faults.make ~seed:0 ())
    else None
  in
  let m = Stress.machine ?faults prog in
  let e = Machine.engine m in
  if trace then Machine.enable_trace ~capacity:8192 m;
  Engine.set_choice_hook e (Some (on_tie ctl));
  if ctl.faulty then
    Network.set_fault_chooser (Machine.network m) (Some (on_fault ctl));
  (* Every commit is a transition, a diverged run's included. *)
  let verdict =
    Fun.protect
      ~finally:(fun () ->
        ctl.c_stats.transitions <-
          ctl.c_stats.transitions + Engine.events_processed e)
      (fun () -> Stress.run_on m ~expect prog)
  in
  (verdict, if trace then Machine.trace_events m else [])

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

type violation = {
  v_label : string;
  v_prog : Stress.prog;
  v_schedule : int list;
  v_report : string;
  v_fault_budget : int;
  v_dup : bool;
}

type outcome =
  | Exhausted  (** every interleaving within the bounds explored, no bug *)
  | Capped  (** schedule cap hit before the space was exhausted *)
  | Found of violation

let schedule_to_string = function
  | [] -> "-"
  | l -> String.concat "." (List.map string_of_int l)

let schedule_of_string s =
  match String.trim s with
  | "" | "-" -> Ok []
  | s -> (
    try
      Ok
        (List.map
           (fun part ->
             let i = int_of_string (String.trim part) in
             if i < 0 then failwith "negative" else i)
           (String.split_on_char '.' s))
    with _ ->
      Error
        (Printf.sprintf
           "bad schedule %S: expected dot-separated choice indices (e.g. \
            \"0.2.1\") or \"-\""
           s))

let explore ?(label = "config") ?(max_schedules = 20_000) ?(fault_budget = 0)
    ?(dup = false) ?(reduce = true) (prog : Stress.prog) =
  let st = fresh_stats () in
  let expect = Stress.spec prog in
  (* DFS over forced prefixes.  A run's choice points past its prefix
     length contribute their unexplored alternatives; a prefix is pushed
     exactly once, so the enumeration terminates and covers every
     reachable schedule within the bounds. *)
  let stack = ref [ [||] ] in
  let result = ref Exhausted in
  (try
     while !stack <> [] do
       if st.schedules >= max_schedules then begin
         result := Capped;
         raise Exit
       end;
       let forced = List.hd !stack in
       stack := List.tl !stack;
       let ctl = make_ctl ~forced ~fault_budget ~dup ~reduce ~stats:st in
       match run_prog prog ~expect ~ctl with
       | exception Diverged -> ()
       | verdict, _ -> (
         st.schedules <- st.schedules + 1;
         let points = Array.of_list (List.rev ctl.points) in
         let chosen = Array.map (fun p -> p.pt_chosen) points in
         match verdict with
         | Error report ->
           result :=
             Found
               {
                 v_label = label;
                 v_prog = prog;
                 v_schedule = Array.to_list chosen;
                 v_report = report;
                 v_fault_budget = fault_budget;
                 v_dup = dup;
               };
           raise Exit
         | Ok () ->
           (* Push alternatives for every decision past the forced
              prefix; positions inside it were branched by ancestor
              runs. *)
           for pos = Array.length forced to Array.length points - 1 do
             List.iter
               (fun a ->
                 let prefix = Array.sub chosen 0 (pos + 1) in
                 prefix.(pos) <- a;
                 st.branches <- st.branches + 1;
                 stack := prefix :: !stack)
               points.(pos).pt_alts
           done)
     done
   with Exit -> ());
  (!result, st)

(* ------------------------------------------------------------------ *)
(* Replay and shrinking                                                *)
(* ------------------------------------------------------------------ *)

(* One schedule of [prog]; [Diverged] propagates.  A replay uses every
   entry: one past the run's last decision point is as stale as an
   out-of-range one, and a verdict that never read it proves nothing. *)
let run_schedule ?trace ~fault_budget ~dup ~schedule prog =
  let ctl =
    make_ctl ~forced:(Array.of_list schedule) ~fault_budget ~dup ~reduce:true
      ~stats:(fresh_stats ())
  in
  let result = run_prog ?trace prog ~expect:(Stress.spec prog) ~ctl in
  if ctl.depth < Array.length ctl.forced then raise Diverged;
  result

let replay ?(fault_budget = 0) ?(dup = false) ~schedule prog =
  try run_schedule ~trace:true ~fault_budget ~dup ~schedule prog
  with Diverged -> (Error "replay diverged: stale schedule", [])

(* A stale schedule proves nothing: it is not a failure. *)
let replay_fails ~fault_budget ~dup prog schedule =
  match run_schedule ~fault_budget ~dup ~schedule prog with
  | Error r, _ -> Some r
  | Ok (), _ | (exception Diverged) -> None

(* Minimize a violating schedule against a fixed configuration: strip
   trailing default choices, then try progressively shorter prefixes,
   then lower each remaining entry toward the default.  Every candidate
   is validated by a full replay (the choice structure downstream of an
   edit can change, so nothing short of re-running proves it). *)
let minimize_schedule ~fault_budget ~dup prog schedule =
  let strip l =
    let arr = Array.of_list l in
    let n = ref (Array.length arr) in
    while !n > 0 && arr.(!n - 1) = 0 do
      decr n
    done;
    Array.to_list (Array.sub arr 0 !n)
  in
  let fails s = replay_fails ~fault_budget ~dup prog s <> None in
  let best = ref (strip schedule) in
  (* shortest failing prefix *)
  (try
     for k = 0 to List.length !best - 1 do
       let cand = strip (List.filteri (fun i _ -> i < k) !best) in
       if List.length cand < List.length !best && fails cand then begin
         best := cand;
         raise Exit
       end
     done
   with Exit -> ());
  (* lower entries greedily *)
  let changed = ref true in
  let budget = ref 100 in
  while !changed && !budget > 0 do
    changed := false;
    let arr = Array.of_list !best in
    (try
       for i = 0 to Array.length arr - 1 do
         if arr.(i) > 0 && !budget > 0 then
           for v = 0 to arr.(i) - 1 do
             if (not !changed) && !budget > 0 then begin
               decr budget;
               let cand =
                 strip
                   (Array.to_list (Array.mapi (fun j x -> if j = i then v else x) arr))
               in
               if fails cand then begin
                 best := cand;
                 changed := true;
                 raise Exit
               end
             end
           done
       done
     with Exit -> ())
  done;
  !best

(* Shrink a violation to a minimal (config, schedule) counterexample:
   configuration first (each candidate accepted only if a bounded
   re-exploration still finds a violation — which also refreshes the
   schedule), then the schedule against the final configuration. *)
let shrink_violation v =
  let best = ref v in
  let still_violates p =
    match
      explore ~label:v.v_label ~max_schedules:400
        ~fault_budget:v.v_fault_budget ~dup:v.v_dup ~reduce:true p
    with
    | Found v', _ ->
      best := v';
      true
    | _ -> false
  in
  ignore (Stress.shrink_with ~max_tries:120 still_violates v.v_prog);
  let v = !best in
  {
    v with
    v_schedule =
      minimize_schedule ~fault_budget:v.v_fault_budget ~dup:v.v_dup v.v_prog
        v.v_schedule;
  }

let pp_violation ppf v =
  Format.fprintf ppf
    "violation in %s (policy=%s):@.%a@.schedule: %s@.fault choices: \
     budget=%d dup=%b@.%s"
    v.v_label v.v_prog.Stress.policy.Policy.name Stress.pp_prog v.v_prog
    (schedule_to_string v.v_schedule)
    v.v_fault_budget v.v_dup v.v_report

(* ------------------------------------------------------------------ *)
(* Bounded configurations                                              *)
(* ------------------------------------------------------------------ *)

let mk ~policy ?(nnodes = 2) ?(wpb = 2) ~nblocks ?(dist = Gmem.Chunked)
    ?(topology = Topology.Crossbar) ?(barrier = Barrier.Constant) ?capacity
    ?(reductions = []) ?(init = []) segments : Stress.prog =
  {
    seed = 0;
    case = 0;
    policy;
    nnodes;
    words_per_block = wpb;
    nblocks;
    dist;
    topology;
    barrier;
    capacity_blocks = capacity;
    hw_cache_blocks = None;
    reductions;
    init;
    segments;
  }

(* Hand-picked bounded configurations, one family per protocol corner:
   every scenario respects the harness's well-formedness contract (every
   parallel write is explicitly marked; at most one writer per
   non-reduction word per phase; sequential partitions disjoint). *)
let scenarios ~policy : (string * Stress.prog) list =
  let open Stress in
  [
    ( "reader-writer",
      mk ~policy ~nblocks:1
        ~init:[ (0, 7) ]
        [ Parallel [| [ Mark 0; Store (0, 42); Load 1 ]; [ Load 0; Load 1 ] |] ]
    );
    ( "two-writers",
      mk ~policy ~nblocks:2
        ~init:[ (0, 1); (2, 2) ]
        [
          Parallel
            [|
              [ Mark 0; Store (0, 11); Load 2 ];
              [ Mark 2; Store (2, 22); Load 0 ];
            |];
        ] );
    ( "reduction",
      mk ~policy ~nblocks:1
        ~reductions:[ (0, Reduction.int_sum) ]
        ~init:[ (0, 5) ]
        [ Parallel [| [ Mark 0; Accum (0, 3) ]; [ Mark 0; Accum (0, 4) ] |] ]
    );
    ( "seq-then-par",
      mk ~policy ~nblocks:1
        [
          Sequential [| [ Store (0, 3) ]; [] |];
          Parallel [| [ Mark 1; Store (1, 8); Load 0 ]; [ Load 0 ] |];
        ] );
    ( "flush-mid-phase",
      mk ~policy ~nblocks:1
        ~init:[ (0, 10) ]
        [ Parallel [| [ Mark 0; Rmw (0, 5); Flush; Load 0 ]; [ Load 1 ] |] ]
    );
    ( "capacity-evict",
      mk ~policy ~nblocks:2 ~dist:Gmem.Chunked ~capacity:1
        [
          Sequential [| [ Store (2, 99) ]; [] |];
          Parallel [| []; [ Mark 0; Store (0, 5); Load 2 ] |];
        ] );
    ( "three-nodes",
      mk ~policy ~nnodes:3 ~nblocks:2 ~dist:Gmem.Interleaved
        ~init:[ (1, 4) ]
        [
          Parallel
            [|
              [ Mark 0; Store (0, 9) ];
              [ Load 0; Load 1 ];
              [ Mark 3; Store (3, 6); Load 1 ];
            |];
        ] );
  ]

(* Seeded random micro-configurations within the checker's bounds —
   breadth beyond the hand-picked corners.  Mirrors the stress
   generator's well-formedness rules in miniature, with every parallel
   write explicitly marked (always legal, and keeps the program valid
   under every policy). *)
let gen_micro ~seed ~case ~policy : Stress.prog =
  let rng = Rng.create ~seed:(0x51EC + seed + (case * 7_919)) in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  let nnodes = 2 + Rng.int rng 2 in
  let wpb = 2 in
  let nblocks = 1 + Rng.int rng 2 in
  let nwords = nblocks * wpb in
  let dist =
    match Rng.int rng 3 with
    | 0 -> Gmem.On (Rng.int rng nnodes)
    | 1 -> Gmem.Interleaved
    | _ -> Gmem.Chunked
  in
  let capacity = if Rng.int rng 4 = 0 then Some (1 + Rng.int rng 2) else None in
  let reductions =
    if Rng.int rng 3 = 0 then [ (Rng.int rng nblocks, Reduction.int_sum) ]
    else []
  in
  let is_red w = List.mem_assoc (w / wpb) reductions in
  let all_words = List.init nwords Fun.id in
  let init =
    List.filter_map
      (fun w -> if Rng.bool rng then Some (w, Rng.int rng 100) else None)
      all_words
  in
  let lcm = Policy.is_lcm policy in
  let rmw_ok = (not lcm) || capacity = None in
  let gen_seq () =
    Array.init nnodes (fun nid ->
        let own =
          Array.of_list (List.filter (fun w -> w mod nnodes = nid) all_words)
        in
        if Array.length own = 0 then []
        else
          List.init (Rng.int rng 3) (fun _ : Stress.op ->
              match Rng.int rng 4 with
              | 0 -> Load (pick own)
              | 1 -> Store (pick own, Rng.int rng 100)
              | 2 -> Rmw (pick own, 1 + Rng.int rng 9)
              | _ -> Yield))
  in
  let gen_par () =
    let writer =
      Array.init nwords (fun w ->
          if is_red w then None
          else if Rng.int rng 2 = 0 then Some (Rng.int rng nnodes)
          else None)
    in
    let red_words = Array.of_list (List.filter is_red all_words) in
    Array.init nnodes (fun nid ->
        let owned =
          Array.of_list (List.filter (fun w -> writer.(w) = Some nid) all_words)
        in
        let marked = Array.make nblocks false in
        let ensure w (acc : Stress.op list) =
          let b = w / wpb in
          if marked.(b) then acc
          else begin
            marked.(b) <- true;
            Stress.Mark w :: acc
          end
        in
        let rec build k (acc : Stress.op list) =
          if k = 0 then List.rev acc
          else
            let acc : Stress.op list =
              match Rng.int rng 6 with
              | 0 -> Load (Rng.int rng nwords) :: acc
              | (1 | 2) when Array.length owned > 0 ->
                let w = pick owned in
                Store (w, Rng.int rng 100) :: ensure w acc
              | 3 when Array.length owned > 0 && rmw_ok ->
                let w = pick owned in
                Rmw (w, 1 + Rng.int rng 9) :: ensure w acc
              | 4 when Array.length red_words > 0 ->
                let w = pick red_words in
                Accum (w, 1 + Rng.int rng 9) :: ensure w acc
              | _ -> Yield :: acc
            in
            build (k - 1) acc
        in
        build (1 + Rng.int rng 3) [])
  in
  let nseg = 1 + Rng.int rng 2 in
  let segments =
    List.init nseg (fun _ : Stress.segment ->
        if Rng.int rng 4 = 0 then Sequential (gen_seq ())
        else Parallel (gen_par ()))
  in
  { (mk ~policy ~nnodes ~wpb ~nblocks ~dist ?capacity ~reductions ~init segments)
    with seed; case }

(* ------------------------------------------------------------------ *)
(* The configurations a run explores                                   *)
(* ------------------------------------------------------------------ *)

(* The labels [configs] gives, which [configs ~scenario] reads back. *)
let scenario_label : (_, _, _, _, _, _) format6 = "scenario:%s"
let micro_label : (_, _, _, _, _, _) format6 = "micro:seed=%d:case=%d"

let micro ~seed ~case ~policy =
  (Printf.sprintf micro_label seed case, gen_micro ~seed ~case ~policy)

let configs ?scenario ?(random = 0) ?(seed = 0) ~policy () =
  let fixed = scenarios ~policy in
  let labelled (name, prog) = (Printf.sprintf scenario_label name, prog) in
  let micros = List.init random (fun case -> micro ~seed ~case ~policy) in
  match scenario with
  | None -> Ok (List.map labelled fixed @ micros)
  | Some label -> (
    match
      List.find_opt
        (fun (name, _) ->
          label = name || label = Printf.sprintf scenario_label name)
        fixed
    with
    | Some config -> Ok (labelled config :: micros)
    | None -> (
      match
        Scanf.sscanf_opt label (micro_label ^^ "%!") (fun seed case ->
            (seed, case))
      with
      | Some (seed, case) -> Ok (micro ~seed ~case ~policy :: micros)
      | None ->
        Error
          (Printf.sprintf
             "unknown scenario %S (expected one of: %s; or scenario:NAME, \
              micro:seed=S:case=C)"
             label
             (String.concat ", " (List.map fst fixed)))))
