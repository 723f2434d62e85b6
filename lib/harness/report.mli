(** Render experiment rows as the paper's figures and tables.

    All output is plain text meant to be read next to the paper: one
    table of cycles, slowdown and counters per row set (the figures'
    execution times, Table 1's misses and clean copies, every ablation),
    the differential check, the §6.3 claim checklist, and the per-phase
    table of a single run ([lcm_sim ... --phases]). *)

(** {1 Shared machine-readable serialization}

    Every machine-readable artefact the repo writes (fleet sweep
    summaries, lcmbench's JSON) is built from these two writers, so
    escaping lives in one place. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (** non-finite values serialize as [null] *)
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val escape : string -> string
  (** JSON string-body escaping (quotes, backslash, control characters);
      no surrounding quotes. *)

  val to_string : ?indent:int -> t -> string
  (** Pretty-print with [indent] spaces per level (default 2).  Parses
      back with {!Traceview.parse}. *)
end

val csv_field : string -> string
(** RFC-4180 field escaping: quoted (with doubled inner quotes) only when
    the field contains a comma, quote or newline — plain fields pass
    through unchanged. *)

val csv_line : string list -> string
(** One comma-joined, newline-terminated record of escaped fields. *)

(** {1 Paper tables and figures} *)

val agreement : Experiments.row list -> string
(** The differential check: per experiment, whether all systems computed
    identical results. *)

val claims : Experiments.claim list -> string
(** Paper-claim checklist: claim, the paper's number, our measured ratio,
    verdict. *)

val generic : title:string -> Experiments.row list -> string
(** One line per row: simulated cycles, slowdown against the fastest row
    of the same experiment (reproduces Figures 2/3 as numbers), then
    access faults, remote fetches, clean copies and messages in thousands
    (the paper's Table 1 with our counters broken out) and the checksum. *)

val memory_usage : Experiments.row list -> string
(** Clean-copy memory accounting (paper §5.1): copies created vs the peak
    simultaneously alive, per run. *)

val samples : Experiments.row list -> string
(** Observation-series table: one line per (experiment, system, series)
    with count, mean, min and max — e.g. ["cstar.phase_cycles"], the
    per-parallel-call cycle distribution. *)

val message_breakdown : Experiments.row list -> string
(** Per-message-class counts for each row — which protocol actions a
    workload actually consists of. *)

(** {1 Per-phase metrics} *)

val phases : Lcm_cstar.Runtime.phase list -> string
(** A runtime's phase log ({!Lcm_cstar.Runtime.phase_log}) as a table of
    phase, cycles, misses (read+write faults), remote fetches, messages,
    flushed blocks and barrier-wait cycles — a phase-resolved view of
    where an application's misses, messages and barrier wait go. *)
