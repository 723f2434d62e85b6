(** Export typed trace rings to Chrome trace_event JSON, plus a small
    self-contained JSON reader used to validate the output.

    The exporter maps events to the [trace_event] format understood by
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}: handler
    occupancy becomes complete ("X") slices per node, message
    send/receive, faults, directives and barrier entries become instants
    ("i") on the acting node's track, and epoch advances become a counter
    ("C") series.  Simulated cycles are written as microseconds — absolute
    units don't matter to the viewers. *)

val to_chrome_json : (int * Lcm_sim.Trace.event) list -> string
(** Render events (as returned by {!Lcm_tempest.Machine.trace_events}) as
    a complete JSON document.  Events are stably sorted by timestamp —
    node clocks run ahead of the engine, so ring order alone is not
    monotone. *)

val export_file : path:string -> (int * Lcm_sim.Trace.event) list -> unit
(** Write {!to_chrome_json} output to [path]. *)

(** {1 Minimal JSON reader} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> (json, string) result
(** Parse a JSON document (strings, numbers, literals, arrays, objects).
    [Error] carries a message with the byte offset of the problem. *)

val member : string -> json -> json option
(** Field lookup in an [Obj]; [None] on other constructors. *)

(** {1 Validation} *)

val validate_chrome : string -> (int, string) result
(** Check that [text] parses, has a non-empty ["traceEvents"] array, every
    event carries [name]/[ph]/[ts], and timestamps are monotone.  Returns
    the event count. *)

val validate_file : string -> (int, string) result
(** {!validate_chrome} over a file's contents; [Error] on I/O failure.
    Every [Error] names the file once. *)
