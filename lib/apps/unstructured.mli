(** The Unstructured benchmark (paper §6.3, Figure 3, Table 1).

    Relaxation over an irregular graph: each graph node's value moves
    toward the mean of its neighbours' values.  The paper builds a graph of
    256 nodes and 1024 edges, statically partitions it, runs 512
    iterations, and keeps an extra copy of the nodes for the baseline (all
    nodes are updated every iteration, so no separate copy phase is
    needed).  Because the edge structure is random, partitions share many
    cross-processor edges and both protocols communicate heavily — LCM wins
    by a modest 19–28%.

    The adjacency structure is immutable and lives in read-only shared
    memory (CSR layout); values are a double-buffered (baseline) or marked
    (LCM) aggregate. *)

type params = {
  nodes : int;
  edges : int;
  iters : int;
  seed : int;  (** graph construction seed *)
  work_per_node : int;
}

val scatter : params -> int -> int
(** [scatter p u] is the storage slot of graph node [u]: values are laid
    out in construction order, which a post-hoc partition does not align to
    cache blocks — so neighbouring invocations write words of shared blocks
    (the irregular-structure behaviour the paper measures).  The slots
    depend on [p.nodes] alone and permute [\[0, p.nodes)] for every size
    but the multiples of 7919 that are not powers of two. *)

val params : nodes:int -> iters:int -> params
(** [nodes] graph nodes with [4 * nodes] edges for [iters] iterations,
    graph seed 11, 6 work cycles per node. *)

val paper : params
(** 256 nodes / 1024 edges / 512 iterations. *)

val run : Lcm_cstar.Runtime.t -> params -> Bench_result.t
(** @raise Invalid_argument when [edges] exceeds [nodes * (nodes - 1) / 2],
    the most a graph without self-loops or repeated edges has. *)

val reference : params -> float
(** Host-side sequential reference checksum.
    @raise Invalid_argument as {!run} does. *)
