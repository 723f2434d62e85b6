type window = {
  w_src : int option;
  w_dst : int option;
  from_t : int;
  until_t : int;
}

type t = {
  seed : int;
  drop : float;
  dup : float;
  jitter : int;
  down : window list;
  retransmit : bool;
  max_retries : int;
  profile : (string * float) option;
}

let make ?(drop = 0.0) ?(dup = 0.0) ?(jitter = 0) ?(down = [])
    ?(retransmit = true) ?(max_retries = 12) ~seed () =
  (* written so that NaN, which fails every comparison, is rejected *)
  let in_unit p = p >= 0.0 && p <= 1.0 in
  if not (in_unit drop) then invalid_arg "Faults.make: drop not in [0,1]";
  if not (in_unit dup) then invalid_arg "Faults.make: dup not in [0,1]";
  if jitter < 0 then invalid_arg "Faults.make: jitter must be >= 0";
  if max_retries < 0 then invalid_arg "Faults.make: max_retries must be >= 0";
  List.iter
    (fun w ->
      if w.from_t < 0 || w.until_t < w.from_t then
        invalid_arg "Faults.make: malformed down window")
    down;
  (* Windows whose channel patterns can match the same (src, dst) pair must
     be listed in time order and must not overlap: [link_down] scans the
     list, and a shadowed or out-of-order outage in a hand-written plan is
     almost always a typo — e.g. a window entirely inside an earlier one
     silently adds nothing.  Two patterns intersect unless they pin the
     same field ([w_src] or [w_dst]) to different nodes; a [None] wildcard
     matches everything. *)
  let intersects a b =
    (match (a.w_src, b.w_src) with Some x, Some y -> x = y | _ -> true)
    && match (a.w_dst, b.w_dst) with Some x, Some y -> x = y | _ -> true
  in
  let rec check_order = function
    | [] -> ()
    | w :: rest ->
      List.iter
        (fun w' ->
          if intersects w w' && w.until_t > w'.from_t then
            invalid_arg
              (Printf.sprintf
                 "Faults.make: down windows on the same channel must be \
                  sorted and non-overlapping: [%d,%d) is not before [%d,%d)"
                 w.from_t w.until_t w'.from_t w'.until_t))
        rest;
      check_order rest
  in
  check_order down;
  { seed; drop; dup; jitter; down; retransmit; max_retries; profile = None }

let link_down t ~src ~dst ~at =
  List.exists
    (fun w ->
      at >= w.from_t && at < w.until_t
      && (match w.w_src with Some s -> s = src | None -> true)
      && (match w.w_dst with Some d -> d = dst | None -> true))
    t.down

let profiles = [ "drop"; "dup"; "jitter"; "flap"; "chaos"; "drop-noretx" ]

(* Profiles map one scalar --fault-rate knob onto a plan shape.  The
   link-flap windows are fixed-position (derived from nothing but the
   rate) so that a (profile, rate, seed) triple is a complete, replayable
   description of the run. *)
let of_profile name ~rate ~seed =
  if not (rate >= 0.0 && rate <= 1.0) (* NaN too *) then
    Error (Printf.sprintf "fault rate %g not in [0,1]" rate)
  else
    let jitter_of rate = 1 + int_of_float (rate *. 200.) in
    let flap_windows rate =
      (* three all-channel outages early in the run, each long enough to
         force retransmission backoff but short enough that the default
         retry cap rides them out *)
      let dur = 200 + int_of_float (rate *. 4_000.) in
      List.map
        (fun t0 ->
          { w_src = None; w_dst = None; from_t = t0; until_t = t0 + dur })
        [ 2_000; 20_000; 90_000 ]
    in
    let name = String.lowercase_ascii (String.trim name) in
    let named plan = Ok { plan with profile = Some (name, rate) } in
    match name with
    | "none" -> named (make ~seed ())
    | "drop" -> named (make ~drop:rate ~seed ())
    | "dup" -> named (make ~dup:rate ~seed ())
    | "jitter" -> named (make ~jitter:(jitter_of rate) ~seed ())
    | "flap" -> named (make ~down:(flap_windows rate) ~seed ())
    | "chaos" ->
      named
        (make ~drop:rate ~dup:(rate /. 2.) ~jitter:(jitter_of rate)
           ~down:(flap_windows rate) ~seed ())
    | "drop-noretx" -> named (make ~drop:rate ~retransmit:false ~seed ())
    | other ->
      Error
        (Printf.sprintf "unknown fault profile %S; pick one of: %s" other
           (String.concat ", " profiles))

let to_string t =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "seed=%d" t.seed);
  if t.drop > 0.0 then Buffer.add_string b (Printf.sprintf " drop=%g" t.drop);
  if t.dup > 0.0 then Buffer.add_string b (Printf.sprintf " dup=%g" t.dup);
  if t.jitter > 0 then Buffer.add_string b (Printf.sprintf " jitter=%d" t.jitter);
  List.iter
    (fun w ->
      Buffer.add_string b
        (Printf.sprintf " down[%s->%s %d,%d)"
           (match w.w_src with Some s -> string_of_int s | None -> "*")
           (match w.w_dst with Some d -> string_of_int d | None -> "*")
           w.from_t w.until_t))
    t.down;
  Buffer.add_string b
    (if t.retransmit then Printf.sprintf " retx<=%d" t.max_retries
     else " no-retx");
  Buffer.contents b
