type dir = ..

type dir += Mark_modification of int | Flush_copies

type _ Effect.t +=
  | Load : int -> int Effect.t
  | Store : int * int -> unit Effect.t
  | Rmw : int * (int -> int) -> int Effect.t
  | Yield : unit Effect.t
  | Directive : dir -> unit Effect.t

(* Fast-path hooks, installed once by the Tempest machine.  A perform
   allocates (the effect value plus the continuation) even when the
   handler resumes immediately, which a cache hit always does; the hooks
   let the machine complete hit accesses synchronously — with side
   effects identical to the handler's hit path — and fall back to the
   effect only on a miss.  The load and store defaults always miss, so
   code running under a foreign handler performs the effect. *)

let fast_miss = min_int
(* Word values are 32-bit, so a real load can never equal [fast_miss];
   even if some exotic handler returned it, falling through to [perform]
   re-reads the same value — the sentinel is safe, merely slower. *)

let fast_load : (int -> int) ref = ref (fun _ -> fast_miss)
let fast_store : (int -> int -> bool) ref = ref (fun _ _ -> false)
let fast_work : (int -> bool) ref = ref (fun _ -> false)

let load addr =
  let v = !fast_load addr in
  if v = fast_miss then Effect.perform (Load addr) else v

let store addr w =
  if not (!fast_store addr w) then Effect.perform (Store (addr, w))

let rmw addr f = Effect.perform (Rmw (addr, f))

let work n =
  if not (!fast_work n) then
    invalid_arg "Memeff.work: outside a machine fiber"

let yield () = Effect.perform Yield

let directive d = Effect.perform (Directive d)
