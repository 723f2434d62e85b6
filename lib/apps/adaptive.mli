(** The Adaptive benchmark (paper §6.2–6.3, Figures 1 & 3, Table 1).

    A stencil over a time-varying mesh: potentials relax over an [n × n]
    base grid, and cells whose value moves sharply are subdivided into
    dynamically-allocated quad-tree cells (up to [max_depth]), which relax
    against their parents.  The mesh structure changes while the program
    runs, so a compiler cannot tell which parts will be modified:

    - under a conventional memory system the program keeps two copies of
      the {e entire} mesh and copies every allocated cell between them
      before each iteration (the conservative baseline);
    - under LCM the memory system's copy-on-write marks copy only the data
      actually modified.

    Each cell occupies exactly one cache block (value, four child links,
    depth, padding).  New cells are allocated from per-node arena slices by
    the invocation that subdivides, so the tree's layout — and therefore
    its communication pattern — follows the schedule, as in a real dynamic
    application. *)

type params = {
  n : int;  (** base mesh edge *)
  iters : int;
  max_depth : int;  (** maximum quad-tree depth below the base grid *)
  subdiv_threshold : float;  (** |Δvalue| that triggers subdivision *)
  arena_per_node : int;  (** spare cells available to each node *)
  work_per_cell : int;
}

val params :
  n:int -> iters:int -> max_depth:int -> arena_per_node:int -> params
(** An [n × n] base mesh for [iters] iterations, subdividing a cell whose
    value moves by more than 2.0, 6 work cycles per cell. *)

val paper : params
(** 64×64, 100 iterations, depth ≤ 4. *)

val run : Lcm_cstar.Runtime.t -> params -> Bench_result.t
(** The result's checksum sums the values of every allocated cell. *)

val reference : params -> float
(** Host-side sequential reference checksum (same arithmetic, same
    subdivision rule). *)

val cells_allocated : Lcm_cstar.Runtime.t -> params -> int
(** Total cells (base + subdivided) after a run — diagnostic. *)

val refinement_map : Lcm_cstar.Runtime.t -> params -> string
(** Run the benchmark and render the final mesh as ASCII art — one
    character per base cell giving its quad-tree depth ([.] = no
    subdivision), the picture the paper's Figure 1 shows: refinement
    clusters where the potential gradient is steep. *)
