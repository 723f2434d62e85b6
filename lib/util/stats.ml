type sample = {
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

(* One cell per name.  [written] records the first write, so resolving a
   handle for a counter that never fires leaves no trace:
   [counters]/[gauges] list exactly the cells something wrote, even when
   the write left them at 0.  A sample cell needs no flag: [count > 0]
   already means "observed". *)
type num = { mutable v : int; mutable written : bool }

type t = {
  counters : (string, num) Hashtbl.t;
  gauges : (string, num) Hashtbl.t;
  samples : (string, sample) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    samples = Hashtbl.create 16;
  }

module Handle = struct
  type counter = num
  type gauge = num
  type nonrec sample = sample

  let incr c =
    c.written <- true;
    c.v <- c.v + 1

  let add c n =
    c.written <- true;
    c.v <- c.v + n

  let value c = c.v

  let set_max c v =
    c.written <- true;
    if v > c.v then c.v <- v

  let observe r x =
    r.count <- r.count + 1;
    r.sum <- r.sum +. x;
    if x < r.min then r.min <- x;
    if x > r.max then r.max <- x
end

let resolve table name fresh =
  match Hashtbl.find_opt table name with
  | Some cell -> cell
  | None ->
    let cell = fresh () in
    Hashtbl.add table name cell;
    cell

let fresh_num () = { v = 0; written = false }

let counter s name = resolve s.counters name fresh_num

let gauge s name = resolve s.gauges name fresh_num

let fresh_sample () = { count = 0; sum = 0.0; min = infinity; max = neg_infinity }

let sample s name = resolve s.samples name fresh_sample

let get s name =
  match Hashtbl.find_opt s.counters name with Some c -> c.v | None -> 0

type summary = { count : int; mean : float; min : float; max : float }

(* Only called on observed series (count > 0): an empty series has no
   min/max, so summarizing it would have to invent values (the old 0.0
   placeholder was indistinguishable from a real all-zero sample).
   Empty series are instead omitted from [samples]. *)
let summarize (r : sample) =
  { count = r.count; mean = r.sum /. float_of_int r.count; min = r.min;
    max = r.max }

let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let samples s =
  Hashtbl.fold
    (fun name (r : sample) acc ->
      if r.count > 0 then (name, summarize r) :: acc else acc)
    s.samples []
  |> by_name

let written table =
  Hashtbl.fold
    (fun name c acc -> if c.written then (name, c.v) :: acc else acc)
    table []
  |> by_name

let counters s = written s.counters

let gauges s = written s.gauges

let pp ppf s =
  List.iter (fun (name, v) -> Format.fprintf ppf "%s = %d@." name v) (counters s);
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%s = %d (gauge)@." name v)
    (gauges s);
  List.iter
    (fun (name, sm) ->
      Format.fprintf ppf "%s = count=%d mean=%g min=%g max=%g (sample)@." name
        sm.count sm.mean sm.min sm.max)
    (samples s)
