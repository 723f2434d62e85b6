(** Deterministic network fault plans.

    A plan describes how an unreliable interconnect misbehaves: a
    per-message drop probability, a duplication probability, bounded
    uniform extra-latency jitter, and optional "link down" windows during
    which a channel delivers nothing.  A {!Network.t} created with a plan
    draws every fault decision from one {!Lcm_util.Rng} stream seeded with
    [seed], so a (plan, workload) pair replays bit-identically — same
    drops, same duplicates, same jitter, same [fault.*] counters.

    The plan also configures the reliable transport built on top (see
    {!Network.send_reliable_call}): whether retransmission is enabled, and
    the retry cap.  The cap is what ends a hopeless run: a message is sent
    at most [max_retries + 1] times before {!Network.Net_unreachable}
    names its channel.  Without retransmission, lost messages stay lost,
    and the machine reports the drained queue as a typed stall
    ([Lcm_tempest.Machine.Stalled]). *)

type window = {
  w_src : int option;  (** [None] = any source *)
  w_dst : int option;  (** [None] = any destination *)
  from_t : int;
  until_t : int;  (** down for engine times in [\[from_t, until_t)] *)
}

type t = private {
  seed : int;
  drop : float;  (** per-copy drop probability in [\[0,1\]] *)
  dup : float;  (** per-message duplication probability *)
  jitter : int;  (** extra injection delay, uniform in [\[0, jitter\]] *)
  down : window list;
  retransmit : bool;
      (** when false, {!Network.send_reliable_call} degrades to the lossy
          fire-and-forget path — lost messages stay lost *)
  max_retries : int;
      (** retransmissions per message before {!Network.Net_unreachable};
          the base retransmission timeout is derived from the message's
          round-trip latency *)
  profile : (string * float) option;
      (** the profile name and rate {!of_profile} built the plan from;
          [None] for a plan from {!make} *)
}

val make :
  ?drop:float ->
  ?dup:float ->
  ?jitter:int ->
  ?down:window list ->
  ?retransmit:bool ->
  ?max_retries:int ->
  seed:int ->
  unit ->
  t
(** Defaults: no faults, retransmission on with [max_retries = 12].
    Down windows whose channel patterns can match the same (src, dst)
    pair — wildcards intersect everything — must be listed in time order
    and must not overlap.
    @raise Invalid_argument on out-of-range probabilities, negative
    jitter/retries, a malformed window, or intersecting windows that are
    unsorted or overlapping. *)

val link_down : t -> src:int -> dst:int -> at:int -> bool
(** Is channel [(src, dst)] inside a down window at engine time [at]? *)

val profiles : string list
(** Named profile shapes accepted by {!of_profile}: [drop], [dup],
    [jitter], [flap], [chaos], [drop-noretx] (plus [none]). *)

val of_profile : string -> rate:float -> seed:int -> (t, string) result
(** [of_profile name ~rate ~seed] builds the named plan shape scaled by
    [rate] (the drop/dup probability; jitter and flap-window length scale
    with it).  [drop-noretx] is the diagnostic shape with retransmission
    disabled — runs under it lose messages for good and are expected to
    end in a typed stall ([Lcm_tempest.Machine.Stalled]). *)

val to_string : t -> string
(** One-line rendering, e.g. ["seed=7 drop=0.05 retx<=12"]. *)
