(** Red-black successive over-relaxation — a workload where the compiler
    can omit every directive.

    Each half-iteration updates only one colour of a checkerboard while
    reading the other, so no invocation ever reads a location the phase
    writes: word-level analysis finds no conflicts, the compiler emits
    {e plain stores} (no [mark_modification], no [flush_copies], no double
    buffering — in-place update is semantically correct for red-black).

    What remains is pure memory-system behaviour on the blocks that
    straddle partition boundaries (pick [n] not divisible by the block
    size so rows wrap mid-block): under Stache the falsely-shared blocks
    ping-pong between writers; under LCM the unannotated writes fault into
    implicit marks and reconciliation merges the disjoint words — the
    paper's §7.4 mechanism arising in a real algorithm, with the run-time
    system backstopping the compiler's "expected case" code. *)

type params = {
  n : int;  (** mesh edge; choose n mod words_per_block <> 0 *)
  iters : int;  (** full iterations (two half-sweeps each) *)
  omega : float;  (** over-relaxation factor, in (0, 2) *)
  work_per_cell : int;
}

val params : n:int -> iters:int -> params
(** An [n × n] mesh for [iters] iterations, omega 1.5, 4 work cycles per
    cell. *)

val run : Lcm_cstar.Runtime.t -> params -> Bench_result.t

val reference : params -> float
(** Host-side sequential reference checksum. *)
