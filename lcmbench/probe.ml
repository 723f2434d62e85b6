(* Instrumentation of the traced pass, all of it outside lib/: spans the
   benchmark records around its calls into each layer, GC pauses read
   from this process's own Runtime_events ring, access counts from
   wrapping Tempest's fast-path hooks, and event-queue depth sampled by the
   engine's budget guard.  Everything is off — one bool test per call —
   until [start]. *)

module Engine = Lcm_sim.Engine
module Memeff = Lcm_tempest.Memeff
module RE = Runtime_events

let now_ns () = Monotonic_clock.now ()
let on = ref false

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at the root *)
  pass : int;
  t0 : int64;
  mutable t1 : int64;
}

let pass_id = ref 0
let finished = ref []
let open_spans = ref []
let next_id = ref 0

(* ------------------------------------------------------------------ *)
(* GC pauses                                                           *)
(* ------------------------------------------------------------------ *)

(* Runtime phases nest (a minor collection contains its root scans), so a
   pause is the time the nesting depth is above zero. *)
let gc_pauses = ref []
let gc_depth = ref 0
let gc_t0 = ref 0L
let gc_lost = ref 0
let cursor = ref None

let callbacks =
  let ts = RE.Timestamp.to_int64 in
  RE.Callbacks.create
    ~runtime_begin:(fun _ t _ ->
      if !gc_depth = 0 then gc_t0 := ts t;
      incr gc_depth)
    ~runtime_end:(fun _ t _ ->
      if !gc_depth > 0 then begin
        decr gc_depth;
        if !gc_depth = 0 then gc_pauses := (!gc_t0, ts t) :: !gc_pauses
      end)
    ~lost_events:(fun _ n -> gc_lost := !gc_lost + n)
    ()

let poll_gc () =
  match !cursor with
  | Some c -> ignore (RE.read_poll c callbacks None)
  | None -> ()

let span name f =
  if not !on then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let s = { id = !next_id; name; parent; pass = !pass_id; t0 = now_ns (); t1 = 0L } in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now_ns ();
        open_spans := List.tl !open_spans;
        finished := s :: !finished;
        poll_gc ())
  end

(* ------------------------------------------------------------------ *)
(* Access counts and queue depth                                       *)
(* ------------------------------------------------------------------ *)

let loads = ref 0
let load_hits = ref 0
let stores = ref 0
let store_hits = ref 0
let depths = ref []
let engine = ref None

(* The app workloads hand over the engine they just built; stress cases
   and checker runs build theirs inside the harness, out of reach. *)
let watch e = if !on then engine := Some e

let guard () =
  (match !engine with Some e -> depths := Engine.pending e :: !depths | None -> ());
  poll_gc ()

(* The guard fires every few thousand simulated events of every engine
   created inside [f]. *)
let budgeted f =
  if not !on then f ()
  else Fun.protect (fun () -> Engine.with_budget ~guard f) ~finally:(fun () -> engine := None)

let restore = ref ignore

let start () =
  on := true;
  RE.start ();
  cursor := Some (RE.create_cursor None);
  let fl = !Memeff.fast_load and fs = !Memeff.fast_store in
  Memeff.fast_load :=
    (fun a ->
      incr loads;
      let v = fl a in
      if v <> Memeff.fast_miss then incr load_hits;
      v);
  Memeff.fast_store :=
    (fun a w ->
      incr stores;
      let ok = fs a w in
      if ok then incr store_hits;
      ok);
  restore :=
    fun () ->
      Memeff.fast_load := fl;
      Memeff.fast_store := fs

let stop () =
  poll_gc ();
  !restore ();
  Option.iter RE.free_cursor !cursor;
  cursor := None;
  RE.pause ();
  on := false

(* ------------------------------------------------------------------ *)
(* Reading the record                                                  *)
(* ------------------------------------------------------------------ *)

let dur s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

(* Per span name: (count, total seconds, self seconds), where self time
   is the span's duration minus the part its child spans cover. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
      Hashtbl.replace child s.parent (c +. dur s))
    !finished;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, tot, self = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0., 0.) in
      let kids = Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      Hashtbl.replace by_name s.name (n + 1, tot +. dur s, self +. dur s -. kids))
    !finished;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

(* GC pause seconds that fall inside spans named [name]: both lists are
   swept in start order. *)
let gc_within name =
  let spans =
    List.filter (fun s -> s.name = name) !finished
    |> List.map (fun s -> (s.t0, s.t1))
    |> List.sort compare
  in
  let rec go acc spans pauses =
    match (spans, pauses) with
    | [], _ | _, [] -> acc
    | (a0, a1) :: srest, (p0, p1) :: prest ->
      if p1 <= a0 then go acc spans prest
      else if a1 <= p0 then go acc srest pauses
      else
        let overlap = Int64.sub (min a1 p1) (max a0 p0) in
        let acc = acc +. (Int64.to_float overlap *. 1e-9) in
        if p1 <= a1 then go acc spans prest else go acc srest pauses
  in
  go 0. spans (List.sort compare !gc_pauses)

(* Chrome trace_event document: bench spans on thread 1, GC pauses on
   thread 2, microseconds from the first span. *)
let chrome_json ~workload =
  let module J = Lcm_harness.Report.Json in
  let origin = List.fold_left (fun m s -> min m s.t0) Int64.max_int !finished in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let ev name tid t0 t1 args =
    ( us t0,
      J.Obj
        ([
           ("name", J.Str name);
           ("ph", J.Str "X");
           ("ts", J.Float (us t0));
           ("dur", J.Float (us t1 -. us t0));
           ("pid", J.Int 1);
           ("tid", J.Int tid);
         ]
        @ args) )
  in
  let spans =
    List.map
      (fun s ->
        ev s.name 1 s.t0 s.t1
          [
            ( "args",
              J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("pass", J.Int s.pass) ] );
          ])
      !finished
  in
  let gcs =
    List.filter_map (fun (a, b) -> if a >= origin then Some (ev "gc" 2 a b []) else None) !gc_pauses
  in
  let events = List.stable_sort (fun (a, _) (b, _) -> compare a b) (spans @ gcs) in
  J.to_string ~indent:0
    (J.Obj
       [
         ("traceEvents", J.Arr (List.map snd events));
         ("displayTimeUnit", J.Str "ms");
         ("otherData", J.Obj [ ("workload", J.Str workload); ("gc_lost_events", J.Int !gc_lost) ]);
       ])
