type fault_kind = Read | Write

type event =
  | Msg_send of { tag : string; src : int; dst : int; words : int }
  | Msg_recv of { tag : string; src : int; dst : int; words : int }
  | Msg_drop of { tag : string; src : int; dst : int; words : int }
  | Msg_retx of { tag : string; src : int; dst : int; words : int; attempt : int }
  | Fault of { kind : fault_kind; node : int; addr : int; block : int }
  | Directive of { node : int; name : string }
  | Barrier_enter of { node : int }
  | Barrier_release of { nnodes : int }
  | Epoch_advance of { epoch : int }
  | Handler of { node : int; finish : int }
  | Note of string

type t = {
  events : (int * event) array;
  capacity : int;
  mutable next : int;  (* total recorded; next slot = next mod capacity *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { events = Array.make capacity (0, Note ""); capacity; next = 0 }

let emit t ~time event =
  t.events.(t.next mod t.capacity) <- (time, event);
  t.next <- t.next + 1

let record t ~time s = emit t ~time (Note s)

let recorded t = t.next

let events t =
  let n = min t.next t.capacity in
  let first = t.next - n in
  List.init n (fun i -> t.events.((first + i) mod t.capacity))

let render = function
  | Msg_send { tag; src; dst; words } ->
    Printf.sprintf "msg %s %d->%d (%dw)" tag src dst words
  | Msg_recv { tag; src; dst; words } ->
    Printf.sprintf "recv %s %d->%d (%dw)" tag src dst words
  | Msg_drop { tag; src; dst; words } ->
    Printf.sprintf "drop %s %d->%d (%dw)" tag src dst words
  | Msg_retx { tag; src; dst; words; attempt } ->
    Printf.sprintf "retx#%d %s %d->%d (%dw)" attempt tag src dst words
  | Fault { kind; node; addr; block } ->
    Printf.sprintf "%s fault node %d addr %d (block %d)"
      (match kind with Read -> "read" | Write -> "write")
      node addr block
  | Directive { node; name } -> Printf.sprintf "directive %s node %d" name node
  | Barrier_enter { node } -> Printf.sprintf "barrier enter node %d" node
  | Barrier_release { nnodes } ->
    Printf.sprintf "barrier release (%d nodes)" nnodes
  | Epoch_advance { epoch } -> Printf.sprintf "epoch -> %d" epoch
  | Handler { node; finish } ->
    Printf.sprintf "handler node %d busy until %d" node finish
  | Note s -> s

let dump events =
  List.map
    (fun (time, event) -> Printf.sprintf "[t=%d] %s" time (render event))
    events
