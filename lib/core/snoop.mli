(** Pure transition tables for the snooping-bus protocol family.

    {!Proto_snoop} owns transport (the {!Lcm_net.Bus}) and the writeback
    buffer, the machine parks faulting accesses and {!Barrier} ends each
    phase; this module is the policy layer — total functions from (policy
    knobs, observed state) to next state, free of engine state, so each
    table reads directly against a textbook MSI/MESI/MOESI description.
    {!Policy.snoop}'s two knobs select the family member: [exclusive_state]
    admits E (MESI), [owned_state] admits O (MOESI). *)

type state = I | S | E | O | M

val state_to_string : state -> string

val valid : Policy.snoop -> state -> bool
(** Whether the policy admits the state (E needs [exclusive_state], O
    needs [owned_state]). *)

val tag_of_state : state -> Lcm_tempest.Tag.t
(** The machine-level tag of a cached copy: only [M] is [Writable], so
    stores to S/E/O fault into the protocol; [E]'s upgrade then costs only
    the fault trap — no bus transaction — which is MESI's advantage. *)

val fill_on_read : Policy.snoop -> others_present:bool -> state
(** State a read miss installs, given whether the snoop found any other
    cached copy: [E] when alone under MESI/MOESI, else [S]. *)

val fill_on_write : state
(** [M] — a write miss or completed upgrade always fills Modified. *)

val silent_upgrade_ok : state -> bool
(** Only [E] may upgrade to [M] without a bus transaction. *)

type reaction = {
  next : state;
  supplies : bool;  (** this snooper puts the line on the bus *)
  writes_memory : bool;  (** and also updates the master copy *)
}

val on_bus_rd : Policy.snoop -> state -> reaction
(** Snooper response to an observed BUS_RD.  [M] supplies cache-to-cache
    and either writes memory back and downgrades to [S] (MSI/MESI) or
    downgrades to [O] leaving memory stale (MOESI); [O] keeps supplying;
    [E] downgrades to [S]. *)

val on_bus_rdx : state -> reaction
(** Snooper response to BUS_RDX (and the invalidation half of BUS_UPGR):
    dirty holders supply the current value, every copy invalidates; memory
    may stay stale because the requester becomes the new [M] owner. *)

val writeback_on_evict : state -> bool
(** [M] and [O] lines owe memory a writeback when evicted; [S]/[E] drop
    silently. *)
