(** Coherence-policy descriptions and the policy registry.

    A {!t} is the one record of a memory system: its names and, as pure
    data, its point in the protocol design space; the engine that
    interprets it lives in {!Proto}.  Two families exist:

    - {b Directory} — the paper's RSM family (Section 3): a home-node
      full-directory protocol whose members differ in exactly two
      program-controlled decisions: whether a write request receives an
      exclusive copy (after invalidating all others, as in conventional
      coherent memory) or an {e LCM copy} that is private, writable and
      allowed to coexist with other writable copies; and how returned
      copies reconcile at the home.
    - {b Snoop} — conventional snooping-bus invalidation protocols
      (MSI/MESI/MOESI) riding the shared-bus interconnect model
      ({!Lcm_net.Bus}); the comparison baseline for the directory-vs-bus
      crossover experiments.

    The {!policies} registry lists every memory system.  Each record carries
    every spelling {!of_string} accepts and (through {!is_lcm}) decides
    the C\*\* compilation strategy the runtime pairs with it.  The stress
    harness, the harness [Config] systems and every [lcm_sim] policy
    option derive from it. *)

type write_grant =
  | Exclusive
      (** sequentially-consistent behaviour: one writable copy at a time *)
  | Lcm_copy
      (** loosely-coherent behaviour: a private inconsistent copy;
          memory reconciles at the next [reconcile_copies] *)

type directory = {
  parallel_write_grant : write_grant;
      (** what a write fault during a parallel phase receives *)
  local_clean_copies : bool;
      (** LCM-mcc: marking nodes snapshot a local clean copy and restore
          from it after a flush, preserving locality; LCM-scc and Stache
          keep clean copies only at the home *)
  update_on_reconcile : bool;
      (** reconciliation pushes the new value to outstanding read-only
          copies instead of invalidating them — the update-based member of
          the RSM family ("update-based systems reconcile ... by assigning
          the new value to all copies", §3).  Costs a data message per copy
          at reconcile time but saves the re-fetch when consumers
          re-reference. *)
}

type snoop = {
  exclusive_state : bool;
      (** MESI/MOESI: a read miss with no other cached copy fills
          Exclusive, so the first store upgrades silently (no bus
          transaction) *)
  owned_state : bool;
      (** MOESI: a Modified line hit by a bus read downgrades to Owned and
          keeps supplying the dirty data cache-to-cache instead of writing
          memory back *)
}

type family = Directory of directory | Snoop of snoop

type t = {
  name : string;  (** canonical name, e.g. ["lcm-mcc"] *)
  label : string;
      (** presentation label (e.g. "Stache+copy", "MESI") — the harness
          Config system labels and figure legends derive from it; accepted
          by {!of_string} *)
  aliases : string list;
      (** further {!of_string} spellings (e.g. "copy" for Stache, "lcm"
          for LCM-mcc) *)
  summary : string;  (** one-line description for [--help] and docs *)
  family : family;
}

val stache : t
(** The baseline: user-level sequentially-consistent directory protocol
    (Reinhardt et al.'s Stache), expressed as the degenerate RSM policy. *)

val lcm_scc : t
(** LCM with a single clean copy at the block's home node. *)

val lcm_mcc : t
(** LCM with clean copies on every node that obtains a marked block. *)

val lcm_mcc_update : t
(** LCM-mcc with update-based reconciliation: outstanding read-only copies
    of modified blocks are refreshed in place at [reconcile_copies] rather
    than invalidated. *)

val msi : t
(** Snooping-bus invalidation protocol with Modified/Shared/Invalid line
    states. *)

val mesi : t
(** MSI plus the Exclusive state: unshared read fills upgrade to Modified
    without a bus transaction. *)

val moesi : t
(** MESI plus the Owned state: dirty data is shared cache-to-cache without
    a memory writeback until the owner evicts. *)

(** {1 The registry} *)

val policies : t list
(** Every registered policy, in presentation order (the four directory
    policies, then MSI/MESI/MOESI). *)

val spellings : string list
(** Every accepted spelling per policy — canonical name, lowercased label,
    aliases — joined with ["|"] (e.g. ["stache|stache+copy|copy"]): the
    vocabulary the parse error and the CLI help enumerate. *)

val of_string : string -> (t, string) result
(** The policy named by a spelling from {!spellings}; case and
    surrounding blanks are ignored.  The only parser of policy names: the
    error message enumerates every accepted spelling. *)

val is_lcm : t -> bool
(** Whether parallel-phase writes receive private LCM copies (the
    directory family with [Lcm_copy] grants).  Also the C\*\* runtime's
    rule: LCM policies compile to [mark_modification]/[reconcile_copies]
    directives, every coherent policy to explicit copying. *)
