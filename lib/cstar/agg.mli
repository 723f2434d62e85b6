(** C\*\* aggregates: distributed arrays that parallel functions apply over.

    An aggregate's accessors adapt to the C\*\* compilation strategy,
    which the runtime derives from its protocol's policy
    ({!Lcm_core.Policy.is_lcm}):

    - [Lcm_directives]: one buffer; {!set} issues a [mark_modification] directive
      before the store, exactly as the C\*\* compiler does for potentially
      conflicting writes, so the memory system makes the copy;
    - [Explicit_copy]: the explicit-copying baseline — two buffers, reads
      from the front, writes to the back, {!swap} exchanges them after the
      parallel call ("all reads come from the old copy of A and all writes
      go to the new copy of A ... the code exchanges the two arrays with a
      pointer swap").

    {!get}/{!set} perform memory-system effects and may only be called from
    fiber code; {!peek}/{!poke} bypass the simulation for initialisation
    and result extraction. *)

type strategy =
  | Lcm_directives
      (** the compiler relies on the memory system: marks before
          potentially conflicting writes, reconciliation at the end of the
          parallel call *)
  | Explicit_copy
      (** the conservative baseline: double-buffered aggregates and
          hand-coded reductions *)

type t

val create :
  Lcm_core.Proto.t ->
  strategy:strategy ->
  rows:int ->
  cols:int ->
  dist:Lcm_mem.Gmem.dist ->
  t
(** Allocates the aggregate's storage ([rows * cols] words; twice that when
    double-buffered; both buffers share the same distribution). *)

val create1d :
  Lcm_core.Proto.t -> strategy:strategy -> n:int -> dist:Lcm_mem.Gmem.dist -> t
(** A 1-row aggregate. *)

val rows : t -> int
val cols : t -> int
val strategy : t -> strategy

val read_addr : t -> int -> int -> int
(** Global address of element [(i, j)] in the front (read) buffer.
    @raise Invalid_argument when out of bounds. *)

val write_addr : t -> int -> int -> int
(** Address in the back (write) buffer — same as {!read_addr} under
    [Lcm_directives]. *)

val get : t -> int -> int -> int
(** Effectful read of element [(i, j)] (front buffer). *)

val set : t -> int -> int -> int -> unit
(** Effectful write of element [(i, j)]; marks the block first under
    [Lcm_directives]. *)

val getf : t -> int -> int -> float
val setf : t -> int -> int -> float -> unit

val get1 : t -> int -> int
(** 1-D accessors (row 0). *)

val set1 : t -> int -> int -> unit
val getf1 : t -> int -> float
val setf1 : t -> int -> float -> unit

val swap : t -> unit
(** Exchange front and back buffers; no-op under [Lcm_directives].  Only
    sound between phases. *)

val peek : t -> int -> int -> int
(** Non-effectful read of the front buffer (via {!Lcm_core.Proto.peek}). *)

val poke : t -> int -> int -> int -> unit
(** Non-effectful write to {e both} buffers (so a subsequent [swap] does not
    un-initialise data).  Only sound while no node caches the blocks. *)

val peekf : t -> int -> int -> float
val pokef : t -> int -> int -> float -> unit

val to_matrix : t -> float array array
(** Snapshot of the front buffer as floats, via {!peekf}. *)

val fill : t -> (int -> int -> int) -> unit
(** [fill t f] {!poke}s [f i j] into every element, row by row. *)

val fillf : t -> (int -> int -> float) -> unit
(** {!fill} through {!pokef}. *)

val sumf : t -> float
(** The sum of every element read with {!peekf}, added row by row from
    [0.0]: bit for bit the row-major fold over {!to_matrix}. *)
