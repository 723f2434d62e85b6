(* Deterministic digests of a finished simulation, for before/after
   equivalence checks.  The hash is FNV-1a over explicitly serialized
   bytes — independent of Hashtbl.hash and of hash-table iteration order
   (counters/gauges/samples are digested in sorted-name order, memory in
   address order, traces in emission order), so two builds of the
   simulator agree on the digest iff they agree on the observable run. *)

module Machine = Lcm_tempest.Machine
module Stats = Lcm_util.Stats

type t = {
  cycles : int;  (** final [Machine.max_clock] *)
  mem : int64;  (** digest of every allocated word, by address *)
  counters : int64;  (** digest of all counters, gauges and samples *)
  trace : int64;  (** digest of the retained trace event sequence *)
  trace_events : int;  (** number of retained trace events *)
}

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let mix_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let mix_int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    h := mix_byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !h

let mix_int h i = mix_int64 h (Int64.of_int i)

let mix_float h f = mix_int64 h (Int64.bits_of_float f)

let mix_string h s =
  let h = ref (mix_int h (String.length s)) in
  String.iter (fun c -> h := mix_byte !h (Char.code c)) s;
  !h

let mem_digest proto =
  let mach = Lcm_core.Proto.machine proto in
  let g = Machine.gmem mach in
  let n = Lcm_mem.Gmem.allocated_words g in
  let h = ref fnv_offset in
  for a = 0 to n - 1 do
    h := mix_int !h (Lcm_core.Proto.peek proto a)
  done;
  !h

let counters_digest stats =
  let h = ref fnv_offset in
  List.iter
    (fun (name, v) ->
      h := mix_int (mix_string !h name) v)
    (Stats.counters stats);
  List.iter
    (fun (name, v) ->
      h := mix_int (mix_string !h name) v)
    (Stats.gauges stats);
  List.iter
    (fun (name, (sm : Stats.summary)) ->
      h :=
        mix_float
          (mix_float
             (mix_float (mix_int (mix_string !h name) sm.Stats.count) sm.Stats.mean)
             sm.Stats.min)
          sm.Stats.max)
    (Stats.samples stats);
  !h

let trace_digest mach =
  let h = ref fnv_offset in
  let n = ref 0 in
  List.iter
    (fun (time, ev) ->
      incr n;
      h := mix_string (mix_int !h time) (Lcm_sim.Trace.render ev))
    (Machine.trace_events mach);
  (!h, !n)

let of_runtime rt =
  let proto = Lcm_cstar.Runtime.proto rt in
  let mach = Lcm_core.Proto.machine proto in
  let trace, trace_events = trace_digest mach in
  {
    cycles = Machine.max_clock mach;
    mem = mem_digest proto;
    counters = counters_digest (Machine.stats mach);
    trace;
    trace_events;
  }

let to_string f =
  Printf.sprintf "cycles=%d mem=%Lx counters=%Lx trace=%Lx/%d" f.cycles f.mem
    f.counters f.trace f.trace_events

let equal a b =
  a.cycles = b.cycles && a.mem = b.mem && a.counters = b.counters
  && a.trace = b.trace && a.trace_events = b.trace_events
