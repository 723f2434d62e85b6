(* Pure transition tables for the snooping-bus family, in the ASM style of
   protocol specification: every rule is a total function from (policy
   knobs, observed state) to the next state, with no engine state in
   sight.  Proto_snoop owns transport (the bus) and the writeback buffer,
   the machine parks faulting accesses and Barrier ends each phase;
   everything protocol-specific lives here, so the tables can be read
   against a textbook MSI/MESI/MOESI description directly. *)

module Tag = Lcm_tempest.Tag

type state = I | S | E | O | M

let state_to_string = function
  | I -> "I"
  | S -> "S"
  | E -> "E"
  | O -> "O"
  | M -> "M"

let valid (sp : Policy.snoop) = function
  | I | S | M -> true
  | E -> sp.Policy.exclusive_state
  | O -> sp.Policy.owned_state

(* A cached copy's machine-level tag.  Only M maps to Writable: stores to
   S/E/O lines must fault so the protocol sees the write intent — E's
   upgrade is then free (no bus transaction), which is exactly MESI's
   advantage, charged only the fault trap. *)
let tag_of_state = function
  | M -> Tag.Writable
  | S | E | O -> Tag.Read_only
  | I -> Tag.Invalid

(* ------------------------------------------------------------------ *)
(* Requester-side fill states                                          *)
(* ------------------------------------------------------------------ *)

(* State a read miss fills, given whether any other cache holds a copy
   after the snoop. *)
let fill_on_read (sp : Policy.snoop) ~others_present =
  if (not others_present) && sp.Policy.exclusive_state then E else S

(* A write miss (BUS_RDX) or completed upgrade always fills Modified. *)
let fill_on_write = M

(* Only a silent (bus-free) upgrade is allowed from E; S and O must
   broadcast BUS_UPGR so other copies invalidate. *)
let silent_upgrade_ok = function E -> true | I | S | O | M -> false

(* ------------------------------------------------------------------ *)
(* Snooper-side responses                                              *)
(* ------------------------------------------------------------------ *)

type reaction = {
  next : state;
  supplies : bool;  (* this snooper puts the data on the bus *)
  writes_memory : bool;  (* and also updates the master copy *)
}

(* What a snooper holding [st] does when it observes a BUS_RD.  MOESI
   keeps dirty data cache-to-cache (M -> O, memory stays stale); MSI/MESI
   write memory back and downgrade to S. *)
let on_bus_rd (sp : Policy.snoop) st =
  match st with
  | M ->
    if sp.Policy.owned_state then
      { next = O; supplies = true; writes_memory = false }
    else { next = S; supplies = true; writes_memory = true }
  | O -> { next = O; supplies = true; writes_memory = false }
  | E -> { next = S; supplies = true; writes_memory = false }
  | S -> { next = S; supplies = false; writes_memory = false }
  | I -> { next = I; supplies = false; writes_memory = false }

(* What a snooper does on BUS_RDX (or the invalidation half of BUS_UPGR):
   a dirty holder supplies the current value to the requester — who
   becomes the new Modified owner, so memory can stay stale — and every
   copy invalidates. *)
let on_bus_rdx st =
  match st with
  | M | O | E -> { next = I; supplies = true; writes_memory = false }
  | S -> { next = I; supplies = false; writes_memory = false }
  | I -> { next = I; supplies = false; writes_memory = false }

(* Eviction: which states owe memory a writeback when dropped.  E and S
   are clean (memory or the Owned holder is current); M always, O because
   the Owned holder is the only up-to-date copy of a dirty line. *)
let writeback_on_evict = function M | O -> true | I | S | E -> false
