(** The paper's analysable benchmarks, written in the miniature C\*\*
    kernel language.

    Stencil, Threshold and red-black SOR have static access patterns, so
    they can be expressed in the {!Lcm_cstar.Kernel} AST and compiled by
    the conflict analysis — the same programs the hand-written modules
    implement.  (Adaptive and Unstructured need dynamic data structures
    and stay hand-written, which is exactly the paper's point about
    analysability.)

    The test suite runs each kernel against its hand-written counterpart's
    reference, and [examples/compiler_demo.ml] prints and runs both
    compilations of {!stencil}. *)

val stencil : Lcm_cstar.Kernel.t
(** Four-point stencil with copy-through borders (paper §6.1). *)

val threshold : omega:float -> Lcm_cstar.Kernel.t
(** Stencil that only updates on change > [omega] (the paper's Threshold,
    expressed with a guarded assignment; the explicit-copy compilation
    pre-copies because not every cell is surely written). *)

val sor_half : colour:int -> omega:float -> Lcm_cstar.Kernel.t
(** One red-black half-sweep: updates cells of [colour] in place reading
    the other colour; the analysis proves no marks are needed. *)

val run_stencil :
  Lcm_cstar.Runtime.t -> n:int -> iters:int -> init:(int -> int -> float) -> float
(** Compile and iterate {!stencil} over an [n × n] mesh initialised by
    [init]; returns the checksum (sum of all cells). *)

val run_sor :
  Lcm_cstar.Runtime.t ->
  n:int ->
  iters:int ->
  omega:float ->
  init:(int -> int -> float) ->
  float
(** Compile and iterate the two half-sweeps of {!sor_half}. *)
