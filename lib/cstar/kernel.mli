(** A miniature C\*\* kernel language and its compiler.

    The paper's division of labour has the compiler analyse a parallel
    function, decide which memory accesses may conflict with other
    invocations, and insert [mark_modification] / [flush_copies]
    directives (or fall back to conservative explicit copying).  This
    module makes that concrete: kernels are a small deep-embedded AST over
    2-D aggregates, {!analyze} performs the conflict analysis, and
    {!compile} emits an invocation function with the directives (or the
    double-buffering) the runtime strategy requires.

    The index language deliberately covers the paper's workloads: an
    invocation at [(i, j)] may reference aggregates at constant offsets
    from its own coordinates — enough to express stencils, thresholds and
    whole-array maps, and enough for the analysis to be exact. *)

(** {1 Abstract syntax} *)

type idx = Self | Off of int
(** An index coordinate: this invocation's own ([Self] = [#0]/[#1]) or at a
    constant offset from it. *)

type expr =
  | Const of float
  | Ivar  (** [#0] as a float *)
  | Jvar  (** [#1] as a float *)
  | Read of string * idx * idx  (** [A\[i+di\]\[j+dj\]] *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Neg of expr
  | Abs of expr
  | Min of expr * expr
  | Max of expr * expr

type icmp = Lt | Le | Eq | Ne | Ge | Gt

type iatom =
  | I
  | J
  | Rows
  | Cols
  | IConst of int
  | IAddc of iatom * int
  | IAdd of iatom * iatom
  | IMod of iatom * int  (** modulo a positive constant (e.g. parity) *)

type cond =
  | ICmp of icmp * iatom * iatom
  | FCmp of icmp * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond
  | Interior  (** shorthand: 0 < i < rows-1 and 0 < j < cols-1 *)

type stmt =
  | Assign of string * idx * idx * expr  (** [A\[i+di\]\[j+dj\] = e] *)
  | Reduce of string * expr  (** [r %op= e] — reduction assignment *)
  | If of cond * stmt list * stmt list
  | Work of int  (** charge explicit compute cycles *)

type t = { name : string; body : stmt list }

(** {1 Analysis} *)

type decision = {
  marked_aggs : string list;
      (** aggregates whose writes get a [mark_modification]: some other
          invocation may access the written elements *)
  unmarked_aggs : string list;
      (** written aggregates proven private per-invocation: the compiler
          emits plain stores and relies on the memory system to catch the
          unexpected (the paper's "expected case" optimisation) *)
  flush_between : bool;
      (** true iff an invocation may read elements of an aggregate that
          another invocation on the same node wrote — flush_copies must
          separate invocations *)
  precopied : string list;
      (** under explicit copying, which double-buffers every marked
          aggregate (read old / write new / swap): those whose elements
          are not all provably written each call, so every value must be
          conservatively copied to the new buffer first (the expensive
          case the paper's Threshold avoids by writing every element by
          hand) *)
}

val analyze : t -> decision
(** Static conflict analysis.  A write to [A] at [(Self, Self)] conflicts
    iff the kernel elsewhere references [A] at a non-[Self] offset; a write
    at a non-[Self] offset always conflicts.  Reductions always combine and
    never need flushes of their own. *)

val validate : t -> (unit, string) result
(** Reject kernels that read aggregates they never declare, divide by a
    constant zero, etc. (best-effort sanity checks). *)

(** {1 Compilation and execution} *)

type env = {
  aggs : (string * Agg.t) list;  (** aggregate bindings *)
  reducers : (string * Reducer.t) list;  (** reduction variable bindings *)
}

val compile :
  Runtime.t -> t -> env -> over:string -> (?iter:int -> unit -> unit)
(** [compile rt k env ~over] type-checks the kernel against [env] and
    returns a function that applies it in parallel over every element of
    aggregate [over], with marks/flushes (LCM strategy) or double-buffered
    access plus post-call swaps (explicit-copy strategy) exactly as
    {!analyze} decided.

    @raise Invalid_argument if the kernel references unbound names, or if
    [over] is unbound. *)

val pp_decision : Format.formatter -> decision -> unit

val pp : Format.formatter -> t -> unit
(** Pretty-print the kernel source, C\*\*-style. *)

val pp_compiled : Runtime.t -> Format.formatter -> t -> unit
(** Pretty-print the code the compiler conceptually emits for the
    runtime's strategy — kernel statements interleaved with the inserted
    directives, like the paper's Section 6.1 listing. *)
