(* Differential stress harness: seeded random programs executed against
   the full simulated protocol stack (machine + network + RSM engine) and
   checked word-for-word against a network-free spec of the paper's
   per-epoch semantics.  See the .mli for the spec's contract and the
   limits of load-value checking. *)

module Machine = Lcm_tempest.Machine
module Memeff = Lcm_tempest.Memeff
module Gmem = Lcm_mem.Gmem
module Proto = Lcm_core.Proto
module Policy = Lcm_core.Policy
module Barrier = Lcm_core.Barrier
module Reduction = Lcm_core.Reduction
module Topology = Lcm_net.Topology
module Rng = Lcm_util.Rng
module Fleet = Lcm_fleet.Fleet

type op =
  | Load of int  (* word index within the region *)
  | Store of int * int
  | Rmw of int * int  (* fetch-and-add of the given delta *)
  | Accum of int * int  (* reduction accumulate: rmw with the region's op *)
  | Mark of int  (* mark_modification of the word's block *)
  | Flush
  | Work of int
  | Yield

type segment = Sequential of op list array | Parallel of op list array

type prog = {
  seed : int;
  case : int;
  policy : Policy.t;
  nnodes : int;
  words_per_block : int;
  nblocks : int;
  dist : Gmem.dist;
  topology : Topology.t;
  barrier : Barrier.style;
  capacity_blocks : int option;
  hw_cache_blocks : int option;
  reductions : (int * Reduction.t) list;  (* region block index -> operator *)
  init : (int * int) list;  (* word index -> initial value *)
  segments : segment list;
}

let nwords_of prog = prog.nblocks * prog.words_per_block
let red_of prog w = List.assoc_opt (w / prog.words_per_block) prog.reductions

(* ------------------------------------------------------------------ *)
(* Pretty-printing (the shrunk reproducer is printed, not re-generated) *)
(* ------------------------------------------------------------------ *)

let op_to_string = function
  | Load w -> Printf.sprintf "load w%d" w
  | Store (w, v) -> Printf.sprintf "store w%d=%d" w v
  | Rmw (w, k) -> Printf.sprintf "rmw w%d+=%d" w k
  | Accum (w, k) -> Printf.sprintf "accum w%d,%d" w k
  | Mark w -> Printf.sprintf "mark w%d" w
  | Flush -> "flush"
  | Work n -> Printf.sprintf "work %d" n
  | Yield -> "yield"

let dist_to_string = function
  | Gmem.On n -> Printf.sprintf "on:%d" n
  | Gmem.Interleaved -> "interleaved"
  | Gmem.Chunked -> "chunked"

let pp_prog ppf p =
  Format.fprintf ppf
    "policy=%s nnodes=%d words_per_block=%d nblocks=%d dist=%s topo=%s \
     barrier=%s capacity=%s hw_cache=%s@."
    p.policy.Policy.name p.nnodes p.words_per_block p.nblocks
    (dist_to_string p.dist)
    (Topology.to_string p.topology)
    (Barrier.to_string p.barrier)
    (match p.capacity_blocks with Some c -> string_of_int c | None -> "-")
    (match p.hw_cache_blocks with Some c -> string_of_int c | None -> "-");
  List.iter
    (fun (b, r) ->
      Format.fprintf ppf "reduction: block %d = %s@." b r.Reduction.name)
    p.reductions;
  (match p.init with
  | [] -> ()
  | init ->
    Format.fprintf ppf "init:";
    List.iter (fun (w, v) -> Format.fprintf ppf " w%d=%d" w v) init;
    Format.fprintf ppf "@.");
  List.iteri
    (fun si seg ->
      let kind, ops =
        match seg with
        | Sequential ops -> ("sequential", ops)
        | Parallel ops -> ("parallel", ops)
      in
      Format.fprintf ppf "segment %d (%s):@." si kind;
      Array.iteri
        (fun nid opl ->
          if opl <> [] then
            Format.fprintf ppf "  node %d: %s@." nid
              (String.concat "; " (List.map op_to_string opl)))
        ops)
    p.segments

(* ------------------------------------------------------------------ *)
(* The spec: an abstract state machine of the per-epoch semantics      *)
(* ------------------------------------------------------------------ *)

(* In the style of Schewe et al.'s concurrent-ASM specification of
   shared replicated memory: explicit agents, each with a private
   copy-on-write view, stepped one rule application at a time by a
   round-robin scheduler, with a merge rule at flush/reconcile.  For
   well-formed programs (see the .mli preamble) the observations and the
   post-segment state do not depend on the agent interleaving, so any
   one interleaving computes the verdict. *)

let reduction_of prog w =
  match red_of prog w with
  | Some rop -> rop
  | None ->
    failwith
      (Printf.sprintf
         "Stress: accum targets word %d outside every registered reduction \
          region"
         w)

(* One ASM agent: its remaining program, private view and dirty set
   (parallel phases only), and the observation it records per executed
   op — [Some v] where the spec predicts the loaded value, [None] where
   the value is schedule-dependent and unchecked. *)
type agent = {
  nid : int;
  mutable todo : op list;
  priv : (int, int) Hashtbl.t;
  dirty : (int, unit) Hashtbl.t;
  mutable obs : int option list;  (* reversed *)
}

(* Which agents write each word in this segment — the coherent-policy
   predictability rule needs it: a load is only schedule-independent
   when no *other* agent writes the word. *)
let writers_of nwords ops =
  let writers = Array.make nwords [] in
  Array.iteri
    (fun nid opl ->
      List.iter
        (function
          | Store (w, _) | Rmw (w, _) | Accum (w, _) ->
            if not (List.mem nid writers.(w)) then
              writers.(w) <- nid :: writers.(w)
          | Load _ | Mark _ | Flush | Work _ | Yield -> ())
        opl)
    ops;
  writers

let agents_of ops =
  Array.mapi
    (fun nid opl ->
      { nid; todo = opl; priv = Hashtbl.create 8; dirty = Hashtbl.create 8;
        obs = [] })
    ops

(* Round-robin small-step driver: fire one rule of each live agent in
   turn until all programs are exhausted, recording the observation each
   rule returns; the result is every agent's observations in program
   order. *)
let drive agents step =
  let live = ref true in
  while !live do
    live := false;
    Array.iter
      (fun a ->
        match a.todo with
        | [] -> ()
        | op :: rest ->
          a.todo <- rest;
          a.obs <- step a op :: a.obs;
          if a.todo <> [] then live := true)
      agents
  done;
  Array.map (fun a -> List.rev a.obs) agents

(* Sequential rule set: ordinary coherent memory.  Each agent owns a
   disjoint word partition, so reads and writes go straight to the
   master state and every load is predicted.  Accum outside a parallel
   phase is outside the generation contract: no prediction, no state
   change. *)
let spec_sequential master ops =
  drive (agents_of ops) (fun _ op ->
      match op with
      | Load w -> Some master.(w)
      | Store (w, v) ->
        master.(w) <- v;
        None
      | Rmw (w, k) ->
        master.(w) <- master.(w) + k;
        None
      | Accum _ | Mark _ | Flush | Work _ | Yield -> None)

(* Parallel rule set: the paper's per-epoch semantics.  [master] is the
   immutable phase-start state; each agent's writes land in its private
   copy; FLUSH merges the dirty words into [pending] — last-writer for
   plain words (unique writer by well-formedness), the registered
   reduction operator against the phase-start clean value for reduction
   words.  The implicit flush at the phase end is the reconcile; the
   caller promotes [pending] to the new master.

   Load values are only predicted where they are schedule-independent:
   under LCM every load sees the private copy or the phase-start value,
   unless capacity is bounded — a mid-phase eviction resets a node's
   private view at a schedule-dependent point (the merged state is still
   predicted: flush order per word is FIFO per channel, so the last store
   wins regardless of interim evictions).  Under a coherent policy only
   words no other agent writes are predictable. *)
let spec_parallel prog master ops =
  let nwords = Array.length master in
  let pending = Array.copy master in
  let lcm = Policy.is_lcm prog.policy in
  let writers = writers_of nwords ops in
  let agents = agents_of ops in
  let view a w =
    match Hashtbl.find_opt a.priv w with Some v -> v | None -> master.(w)
  in
  let flush a =
    Hashtbl.iter
      (fun w () ->
        let v = view a w in
        match red_of prog w with
        | Some rop ->
          pending.(w) <-
            rop.Reduction.combine ~clean:master.(w) ~current:pending.(w)
              ~incoming:v
        | None -> pending.(w) <- v)
      a.dirty;
    Hashtbl.reset a.dirty;
    (* An LCM flush returns the modified copies to their homes, so the
       next read refetches the clean phase-start version; a coherent
       flush is only a writeback, so the writer keeps observing its own
       stores. *)
    if lcm then Hashtbl.reset a.priv
  in
  let predictable a w =
    if lcm then prog.capacity_blocks = None
    else List.for_all (fun n -> n = a.nid) writers.(w)
  in
  let write a w v =
    Hashtbl.replace a.priv w v;
    Hashtbl.replace a.dirty w ();
    None
  in
  let expected =
    drive agents (fun a op ->
        match op with
        | Load w -> if predictable a w then Some (view a w) else None
        | Store (w, v) -> write a w v
        | Rmw (w, k) -> write a w (view a w + k)
        | Accum (w, k) ->
          write a w ((reduction_of prog w).Reduction.apply (view a w) k)
        | Flush ->
          flush a;
          None
        | Mark _ | Work _ | Yield -> None)
  in
  Array.iter flush agents;
  (expected, pending)

let spec prog =
  let nwords = nwords_of prog in
  let master = Array.make nwords 0 in
  List.iter (fun (w, v) -> master.(w) <- v) prog.init;
  List.map
    (function
      | Sequential ops ->
        let expected = spec_sequential master ops in
        (expected, Array.copy master)
      | Parallel ops ->
        let expected, pending = spec_parallel prog master ops in
        Array.blit pending 0 master 0 nwords;
        (expected, Array.copy master))
    prog.segments

(* ------------------------------------------------------------------ *)
(* Running a program against the real stack                            *)
(* ------------------------------------------------------------------ *)

exception Stress_failure of string list

let event_limit = 3_000_000

let exec_ops prog base mism si nid ops expected () =
  List.iter2
    (fun op exp ->
      match op with
      | Load w -> (
        let got = Memeff.load (base + w) in
        match exp with
        | Some want when got <> want ->
          mism :=
            Printf.sprintf
              "segment %d node %d: load of word %d saw %d, spec expects %d" si
              nid w got want
            :: !mism
        | Some _ | None -> ())
      | Store (w, v) -> Memeff.store (base + w) v
      | Rmw (w, k) -> ignore (Memeff.rmw (base + w) (fun x -> x + k))
      | Accum (w, k) ->
        let rop = reduction_of prog w in
        ignore (Memeff.rmw (base + w) (fun x -> rop.Reduction.apply x k))
      | Mark w -> Memeff.directive (Memeff.Mark_modification (base + w))
      | Flush -> Memeff.directive Memeff.Flush_copies
      | Work n -> Memeff.work n
      | Yield -> Memeff.yield ())
    ops expected

let machine ?faults prog =
  Machine.create ?capacity_blocks:prog.capacity_blocks
    ?hw_cache_blocks:prog.hw_cache_blocks ?faults ~nnodes:prog.nnodes
    ~words_per_block:prog.words_per_block ~topology:prog.topology ()

let run_on m ~expect prog =
  let nwords = nwords_of prog in
  try
    let p = Proto.install ~barrier:prog.barrier ~policy:prog.policy m in
    let base = Gmem.alloc (Machine.gmem m) ~dist:prog.dist ~nwords in
    List.iter
      (fun (bi, rop) ->
        Proto.register_reduction p
          ~base:(base + (bi * prog.words_per_block))
          ~nwords:prog.words_per_block rop)
      prog.reductions;
    List.iter (fun (w, v) -> Proto.poke p (base + w) v) prog.init;
    let mism = ref [] in
    let run_segment si expected ops =
      Array.iteri
        (fun nid opl ->
          Machine.spawn m (Machine.node m nid)
            (exec_ops prog base mism si nid opl expected.(nid)))
        ops;
      Machine.run_to_quiescence ~limit:event_limit m
    in
    let check_words si what want =
      for w = 0 to nwords - 1 do
        let got = Proto.peek p (base + w) in
        if got <> want.(w) then
          mism :=
            Printf.sprintf "segment %d (%s): word %d is %d, spec expects %d" si
              what w got want.(w)
            :: !mism
      done
    in
    let check_invariants si =
      match Proto.check_invariants p with
      | Ok () -> ()
      | Error msgs ->
        mism :=
          List.map (Printf.sprintf "segment %d: invariant: %s" si) msgs
          @ !mism
    in
    (* Segments and their verdicts are walked in step, without building
       a paired list: the model checker calls this once per schedule. *)
    let rec go si segments expect =
      match (segments, expect) with
      | [], [] -> Ok ()
      | seg :: segments, (expected, want) :: expect ->
        (match seg with
        | Sequential ops ->
          run_segment si expected ops;
          check_words si "sequential" want
        | Parallel ops ->
          Proto.begin_parallel p;
          run_segment si expected ops;
          Proto.reconcile p;
          check_words si "post-reconcile" want);
        check_invariants si;
        (* Stop at the first diverging segment: once the states differ,
           later segments only produce cascading noise. *)
        if !mism <> [] then raise (Stress_failure (List.rev !mism));
        go (si + 1) segments expect
      | _ -> invalid_arg "Stress.run_on: expect does not match the segments"
    in
    go 0 prog.segments expect
  with
  | Stress_failure msgs -> Error (String.concat "\n" msgs)
  | Failure msg -> Error ("exception: " ^ msg)
  | Invalid_argument msg -> Error ("invalid argument: " ^ msg)
  | (Machine.Stalled _ | Lcm_net.Network.Net_unreachable _) as e ->
    Error (Printexc.to_string e)

let run_case ?faults prog = run_on (machine ?faults prog) ~expect:(spec prog) prog

(* ------------------------------------------------------------------ *)
(* Program generation                                                  *)
(* ------------------------------------------------------------------ *)

let int_reductions =
  (* Exact integer operators only: float reductions reassociate across
     flush-arrival orders, so their results are not schedule-independent. *)
  Reduction.[ int_sum; int_min; int_max; band; bor; bxor ]

let pick rng arr = arr.(Rng.int rng (Array.length arr))

let gen ~seed ~case ?policy () =
  let rng = Rng.create ~seed:(1 + seed + (case * 1_000_003)) in
  let policy =
    match policy with
    | Some p -> p
    | None -> pick rng (Array.of_list Policy.policies)
  in
  let lcm = Policy.is_lcm policy in
  let nnodes = 2 + Rng.int rng 5 in
  let words_per_block = [| 2; 4; 8 |].(Rng.int rng 3) in
  let nblocks = 2 + Rng.int rng 10 in
  let nwords = nblocks * words_per_block in
  let dist =
    match Rng.int rng 3 with
    | 0 -> Gmem.On (Rng.int rng nnodes)
    | 1 -> Gmem.Interleaved
    | _ -> Gmem.Chunked
  in
  let topology =
    match Rng.int rng 3 with
    | 0 -> Topology.Crossbar
    | 1 -> Topology.Mesh2d { cols = 2 + Rng.int rng 3 }
    | _ -> Topology.Fat_tree { arity = 2 + Rng.int rng 3 }
  in
  let barrier =
    match Rng.int rng 3 with
    | 0 -> Barrier.Constant
    | 1 -> Barrier.Flat
    | _ -> Barrier.Tree (2 + Rng.int rng 3)
  in
  let capacity_blocks =
    if Rng.int rng 3 = 0 then Some (2 + Rng.int rng 3) else None
  in
  let hw_cache_blocks =
    if Rng.int rng 4 = 0 then Some (2 + Rng.int rng 6) else None
  in
  let reductions =
    let rec add acc k =
      if k = 0 then acc
      else
        let b = Rng.int rng nblocks in
        if List.mem_assoc b acc then add acc (k - 1)
        else add ((b, pick rng (Array.of_list int_reductions)) :: acc) (k - 1)
    in
    add [] (Rng.int rng 3)
  in
  let is_red w = List.mem_assoc (w / words_per_block) reductions in
  (* Query the real home mapping on a scratch address space so the
     generator knows when an implicit (fault-driven) mark is equivalent to
     an explicit one. *)
  let home_of_word =
    let g = Gmem.create ~nnodes ~words_per_block in
    let base = Gmem.alloc g ~dist ~nwords in
    fun w -> Gmem.home_of_addr g (base + w)
  in
  let init =
    List.filter_map
      (fun w -> if Rng.bool rng then Some (w, Rng.int rng 1_000_000) else None)
      (List.init nwords Fun.id)
  in
  let all_words = List.init nwords Fun.id in
  (* Blocks a node has written under coherent (exclusive) semantics: such a
     node may still hold a writable copy, so its later parallel-phase
     writes MUST be explicitly marked — an unmarked write would hit the
     writable line and silently bypass LCM (the paper's contract makes
     this a program error: the compiler marks all parallel writes, and the
     implicit mark only backstops writes that actually fault). *)
  let seq_written = Hashtbl.create 32 in
  let gen_sequential () =
    Array.init nnodes (fun nid ->
        let own =
          Array.of_list (List.filter (fun w -> w mod nnodes = nid) all_words)
        in
        if Array.length own = 0 then []
        else
          List.init (Rng.int rng 7) (fun _ ->
              match Rng.int rng 5 with
              | 0 -> Load (pick rng own)
              | 1 | 2 ->
                let w = pick rng own in
                Hashtbl.replace seq_written (nid, w / words_per_block) ();
                Store (w, Rng.int rng 1_000_000)
              | 3 ->
                let w = pick rng own in
                Hashtbl.replace seq_written (nid, w / words_per_block) ();
                Rmw (w, 1 + Rng.int rng 100)
              | _ -> if Rng.bool rng then Work (Rng.int rng 30) else Yield))
  in
  (* Plain read-modify-writes in LCM parallel phases are only predictable
     with unbounded capacity: a mid-phase eviction flushes the private
     copy home, so the next rmw re-marks from the clean (phase-start)
     value and the accumulation chain is lost.  That is inherent to the
     design — the paper's compiler writes each plain location at most once
     per phase and uses reduction operators for accumulation (whose merge
     subtracts the clean baseline, making them eviction-stable). *)
  let rmw_ok = (not lcm) || capacity_blocks = None in
  let gen_parallel () =
    (* at most one writer per non-reduction word: LCM merges concurrent
       writers per word last-writer-wins, which is only deterministic for
       race-free programs — the equivalence the harness checks. *)
    let writer =
      Array.init nwords (fun w ->
          if is_red w then None
          else if Rng.int rng 2 = 0 then Some (Rng.int rng nnodes)
          else None)
    in
    let red_words = Array.of_list (List.filter is_red all_words) in
    Array.init nnodes (fun nid ->
        let owned =
          Array.of_list
            (List.filter (fun w -> writer.(w) = Some nid) all_words)
        in
        let marked = Hashtbl.create 8 in
        let ensure_marked w acc =
          let b = w / words_per_block in
          if (not lcm) || Hashtbl.mem marked b then acc
          else begin
            Hashtbl.replace marked b ();
            let must_mark =
              home_of_word w = nid || Hashtbl.mem seq_written (nid, b)
            in
            if must_mark || Rng.bool rng then Mark w :: acc else acc
          end
        in
        let rec build k acc =
          if k = 0 then List.rev acc
          else
            let acc =
              match Rng.int rng 8 with
              | 0 | 1 -> Load (Rng.int rng nwords) :: acc
              | 2 | 3 when Array.length owned > 0 ->
                let w = pick rng owned in
                Store (w, Rng.int rng 1_000_000) :: ensure_marked w acc
              | 4 when Array.length owned > 0 && rmw_ok ->
                let w = pick rng owned in
                Rmw (w, 1 + Rng.int rng 100) :: ensure_marked w acc
              | 5 when Array.length red_words > 0 ->
                let w = pick rng red_words in
                Accum (w, 1 + Rng.int rng 100) :: ensure_marked w acc
              | 6 when lcm ->
                Hashtbl.reset marked;
                Flush :: acc
              | _ -> (if Rng.bool rng then Work (Rng.int rng 30) else Yield) :: acc
            in
            build (k - 1) acc
        in
        build (Rng.int rng 11) [])
  in
  let nseg = 1 + Rng.int rng 4 in
  let segments = ref [] in
  for _ = 1 to nseg do
    let seg =
      if Rng.int rng 4 = 0 then Sequential (gen_sequential ())
      else Parallel (gen_parallel ())
    in
    segments := seg :: !segments
  done;
  {
    seed;
    case;
    policy;
    nnodes;
    words_per_block;
    nblocks;
    dist;
    topology;
    barrier;
    capacity_blocks;
    hw_cache_blocks;
    reductions;
    init;
    segments = List.rev !segments;
  }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let remove_nth l i = List.filteri (fun j _ -> j <> i) l

(* Strictly-smaller variants, most aggressive first.  Individual [Mark]
   ops are never dropped on their own: removing a mark can turn a
   well-formed program into one with unmarked parallel writes, whose
   divergence would be a program error rather than a protocol bug. *)
let candidates prog =
  let segs = Array.of_list prog.segments in
  let nseg = Array.length segs in
  let with_segments segments = { prog with segments } in
  let drop_segment =
    List.init nseg (fun i -> with_segments (remove_nth prog.segments i))
  in
  (* A reduction region may only be dropped together with every accum that
     targets it: an accum on a region-less word is a program error (the
     typed failure in the spec / executor), and a shrink that
     introduced one would chase that artifact instead of the original
     bug — op retention is conditional on the region surviving. *)
  let drop_reduction =
    List.map
      (fun (bi, _) ->
        let in_region w = w / prog.words_per_block = bi in
        let strip ops =
          Array.map
            (List.filter (function
              | Accum (w, _) -> not (in_region w)
              | _ -> true))
            ops
        in
        {
          prog with
          reductions = List.remove_assoc bi prog.reductions;
          segments =
            List.map
              (function
                | Sequential ops -> Sequential (strip ops)
                | Parallel ops -> Parallel (strip ops))
              prog.segments;
        })
      prog.reductions
  in
  let map_segment i f =
    with_segments
      (List.mapi (fun j s -> if j = i then f s else s) prog.segments)
  in
  let ops_of = function Sequential ops | Parallel ops -> ops in
  let rebuild seg ops =
    match seg with Sequential _ -> Sequential ops | Parallel _ -> Parallel ops
  in
  let clear_node =
    List.concat
      (List.init nseg (fun i ->
           let ops = ops_of segs.(i) in
           List.filter_map
             (fun nid ->
               if ops.(nid) = [] then None
               else
                 Some
                   (map_segment i (fun s ->
                        let ops' = Array.copy (ops_of s) in
                        ops'.(nid) <- [];
                        rebuild s ops')))
             (List.init (Array.length ops) Fun.id)))
  in
  let drop_op =
    List.concat
      (List.init nseg (fun i ->
           let ops = ops_of segs.(i) in
           List.concat
             (List.init (Array.length ops) (fun nid ->
                  List.filter_map
                    (fun k ->
                      match List.nth ops.(nid) k with
                      | Mark _ -> None
                      | _ ->
                        Some
                          (map_segment i (fun s ->
                               let ops' = Array.copy (ops_of s) in
                               ops'.(nid) <- remove_nth ops'.(nid) k;
                               rebuild s ops')))
                    (List.init (List.length ops.(nid)) Fun.id)))))
  in
  drop_segment @ drop_reduction @ clear_node @ drop_op

let shrink_with ?(max_tries = 300) still_fails prog =
  let budget = ref max_tries in
  let check p =
    !budget > 0
    && begin
         decr budget;
         still_fails p
       end
  in
  let rec go p =
    match List.find_opt check (candidates p) with
    | Some p' -> go p'
    | None -> p
  in
  go prog

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let report_failure ?faults prog err =
  let small =
    shrink_with (fun p -> Result.is_error (run_case ?faults p)) prog
  in
  let small_err =
    match run_case ?faults small with Error e -> e | Ok () -> err
  in
  let fault_note, fault_flags =
    match faults with
    | None -> ("", "")
    | Some plan ->
      ( Printf.sprintf " faults=[%s]" (Lcm_net.Faults.to_string plan),
        match plan.Lcm_net.Faults.profile with
        | None -> ""
        | Some (name, rate) ->
          (* the shortest decimal that reads back as [rate] *)
          let r = Printf.sprintf "%g" rate in
          Printf.sprintf " --fault-rate %s --fault-profile %s --fault-seed %d"
            (if float_of_string r = rate then r else Printf.sprintf "%.17g" rate)
            name plan.Lcm_net.Faults.seed )
  in
  Format.asprintf
    "stress case failed: seed=%d case=%d policy=%s%s@.%s@.@.minimal \
     reproducer (regenerate with: lcm_sim stress --seed %d --cases %d \
     --policy %s%s):@.%a@.minimal failure:@.%s"
    prog.seed prog.case prog.policy.Policy.name fault_note err prog.seed
    (prog.case + 1) prog.policy.Policy.name fault_flags pp_prog small small_err

let run ?policy ?faults ?(jobs = 1) ~cases ~seed () =
  (* every case runs at any job count, and only the lowest-index failure
     is shrunk: the report does not depend on [jobs] *)
  let cells =
    Array.init cases (fun case ->
        ( Printf.sprintf "stress case %d (seed %d)" case seed,
          fun () ->
            let prog = gen ~seed ~case ?policy () in
            Result.map_error (fun err -> (prog, err)) (run_case ?faults prog) ))
  in
  let first_problem =
    Fleet.Pool.run ~jobs cells
    |> Array.to_list
    |> List.find_map (fun (r : _ Fleet.cell_result) ->
           match r.Fleet.outcome with
           | Fleet.Done (Ok ()) -> None
           | Fleet.Done (Error (prog, err)) -> Some (report_failure ?faults prog err)
           | outcome ->
             Some
               (Printf.sprintf "%s: %s" r.Fleet.label (Fleet.outcome_string outcome)))
  in
  match first_problem with None -> Ok () | Some e -> Error e
