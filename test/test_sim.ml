(* Tests for the discrete-event engine and cost model. *)

open Lcm_sim

let test_engine_empty () =
  let e = Engine.create () in
  Alcotest.(check bool) "no step" false (Engine.step e);
  Alcotest.(check int) "now 0" 0 (Engine.now e)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:10 (fun () -> log := "b" :: !log);
  Engine.schedule e ~at:5 (fun () -> log := "a" :: !log);
  Engine.schedule e ~at:10 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time then fifo order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 10 (Engine.now e)

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:10 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: at=5 is before now=10")
    (fun () -> Engine.schedule e ~at:5 (fun () -> ()))

let test_engine_cascading () =
  let e = Engine.create () in
  let hits = ref 0 in
  let rec chain n =
    if n > 0 then
      Engine.schedule e ~at:(Engine.now e + 3) (fun () ->
          incr hits;
          chain (n - 1))
  in
  chain 5;
  Engine.run e;
  Alcotest.(check int) "all fired" 5 !hits;
  Alcotest.(check int) "time accumulates" 15 (Engine.now e);
  Alcotest.(check int) "processed" 5 (Engine.events_processed e)

let test_engine_limit () =
  let e = Engine.create () in
  let rec forever () = Engine.schedule e ~at:(Engine.now e + 1) forever in
  forever ();
  Alcotest.(check bool) "limit trips" true
    (try
       Engine.run ~limit:100 e;
       false
     with Failure _ -> true)

let test_engine_limit_exact () =
  (* A budget that runs out exactly as the queue drains is a completed
     run, not a failure. *)
  let e = Engine.create () in
  Engine.run ~limit:0 e;
  Alcotest.(check int) "limit 0 on idle engine" 0 (Engine.events_processed e);
  Engine.schedule e ~at:1 (fun () -> ());
  Engine.schedule e ~at:2 (fun () -> ());
  Engine.run ~limit:2 e;
  Alcotest.(check int) "exact budget drains" 2 (Engine.events_processed e);
  Engine.schedule e ~at:3 (fun () -> ());
  Alcotest.(check bool) "limit 0 with pending work trips" true
    (try
       Engine.run ~limit:0 e;
       false
     with Failure _ -> true)

(* Regression: a negative limit used to behave as unlimited (the countdown
   started below zero and never hit it). *)
let test_engine_negative_limit_rejected () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~at:1 (fun () -> fired := true);
  Alcotest.check_raises "negative limit" (Invalid_argument "Engine.run: limit < 0")
    (fun () -> Engine.run ~limit:(-1) e);
  Alcotest.(check bool) "nothing ran" false !fired;
  Alcotest.(check int) "event still queued" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "engine still usable" true !fired

(* A storm with heavy timestamp collisions: [width] "nodes" each schedule
   bursts at the same instants, every event re-arms children at equal and
   near-equal times (loopback: at = now), and cross-node sends target
   (i + 1) mod width.  Owner-hinted and unhinted events are interleaved at
   every instant.  Each event is numbered when it is scheduled; the log
   records (time, number, label) as it executes. *)
let storm_program ~width ~rounds engine =
  let log = ref [] and next = ref 0 in
  let sched ?owner ~at label f =
    let id = !next in
    incr next;
    Engine.schedule engine ?owner ~at (fun () ->
        log := (Engine.now engine, id, label) :: !log;
        f ())
  in
  let rec node_event i r () =
    if r < rounds then begin
      let now = Engine.now engine in
      sched ~owner:i ~at:now (Printf.sprintf "n%d.loop%d" i r) ignore;
      let j = (i + 1) mod width in
      sched ~owner:j ~at:(now + 3)
        (Printf.sprintf "n%d.r%d" j (r + 1))
        (node_event j (r + 1));
      sched ~at:(now + 3) (Printf.sprintf "n%d.amb%d" i r) ignore
    end
  in
  (* barrier-release shape: all nodes released at t=10 simultaneously *)
  for i = 0 to width - 1 do
    sched ~owner:i ~at:10 (Printf.sprintf "n%d.r0" i) (node_event i 0)
  done;
  log

let run_storm ?limit ~width ~rounds () =
  let e = Engine.create () in
  let log = storm_program ~width ~rounds e in
  Engine.run ?limit e;
  (List.rev !log, Engine.now e, Engine.events_processed e)

(* Owner hints never reorder: the storm commits in (time, scheduling
   order), whatever mix of hinted and unhinted events ties at an instant. *)
let test_storm_order () =
  let log, _, processed = run_storm ~width:6 ~rounds:10 () in
  let keys = List.map (fun (t, id, _) -> (t, id)) log in
  Alcotest.(check int) "every event logged" processed (List.length log);
  Alcotest.(check bool) "ties at every instant" true
    (List.length (List.sort_uniq compare (List.map fst keys))
    < List.length keys / 4);
  Alcotest.(check (list (pair int int)))
    "time, then scheduling order" (List.sort compare keys) keys

let test_storm_repeat_stable () =
  let a = run_storm ~width:5 ~rounds:12 () and b = run_storm ~width:5 ~rounds:12 () in
  Alcotest.(check bool) "identical log, clock and count" true (a = b)

(* Engine state after [n] manual steps of a fresh storm, for comparing
   against the two event caps. *)
let storm_after_steps ~n =
  let e = Engine.create () in
  let log = storm_program ~width:6 ~rounds:9 e in
  for _ = 1 to n do
    ignore (Engine.step e)
  done;
  (e, log)

let state e = (Engine.events_processed e, Engine.now e, Engine.pending e)

let state_t = Alcotest.(triple int int int)

(* [run ~limit:n] stops exactly where [n] steps do, and resuming either
   engine finishes the same run. *)
let test_limit_parity () =
  let stepped, slog = storm_after_steps ~n:55 in
  let e = Engine.create () in
  let log = storm_program ~width:6 ~rounds:9 e in
  Alcotest.(check bool) "limit trips" true
    (try
       Engine.run ~limit:55 e;
       false
     with Failure _ -> true);
  Alcotest.check state_t "stop point" (state stepped) (state e);
  Engine.run stepped;
  Engine.run e;
  Alcotest.(check bool) "resumed runs identical" true (!slog = !log)

(* The ambient budget trips before the (n+1)th event, at the clock [n]
   steps reach, with that event still queued. *)
let test_budget_parity () =
  let stepped, _ = storm_after_steps ~n:55 in
  Engine.with_budget ~max_events:55 (fun () ->
      let e = Engine.create () in
      ignore (storm_program ~width:6 ~rounds:9 e);
      match Engine.run e with
      | () -> Alcotest.fail "budget never tripped"
      | exception Engine.Budget_exhausted { events; now } ->
        Alcotest.(check int) "reported cap" 55 events;
        Alcotest.(check int) "reported clock" (Engine.now stepped) now;
        Alcotest.check state_t "stop point" (state stepped) (state e))

exception Boom

(* A raising body consumes exactly its own event: the clock stands at its
   timestamp, every other event is still queued, and a second [run]
   completes the rest in FIFO order. *)
let test_crash_mid_burst () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 5 do
    Engine.schedule e ~owner:i ~at:10 (fun () ->
        if i = 3 then raise Boom;
        log := Printf.sprintf "n%d@10" i :: !log)
  done;
  for i = 0 to 5 do
    Engine.schedule e ~at:20 (fun () -> log := Printf.sprintf "n%d@20" i :: !log)
  done;
  Alcotest.check_raises "body raises" Boom (fun () -> Engine.run e);
  Alcotest.check state_t "consumed only the raising event" (4, 10, 8) (state e);
  Engine.run e;
  Alcotest.(check (list string))
    "resumed in FIFO order"
    [
      "n0@10"; "n1@10"; "n2@10"; "n4@10"; "n5@10";
      "n0@20"; "n1@20"; "n2@20"; "n3@20"; "n4@20"; "n5@20";
    ]
    (List.rev !log)

(* Argument validation: each bad argument is refused before anything runs. *)
let test_guards () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Engine.with_budget: max_events < 0") (fun () ->
      Engine.with_budget ~max_events:(-1) ignore);
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~at:1 (fun () -> incr fired);
  Engine.schedule e ~at:1 (fun () -> incr fired);
  Engine.set_choice_hook e (Some (fun cands -> Array.length cands));
  Alcotest.check_raises "out-of-range choice"
    (Invalid_argument "Engine: choice hook returned 2 with 2 candidates")
    (fun () -> ignore (Engine.step e));
  Engine.set_choice_hook e None;
  Alcotest.(check int) "nothing ran" 0 !fired

let test_trace_typed_events () =
  let tr = Trace.create ~capacity:8 in
  Trace.emit tr ~time:5 (Trace.Msg_send { tag = "get"; src = 0; dst = 1; words = 8 });
  Trace.emit tr ~time:9
    (Trace.Fault { kind = Trace.Read; node = 1; addr = 64; block = 8 });
  Trace.emit tr ~time:12 (Trace.Barrier_release { nnodes = 4 });
  Alcotest.(check int) "recorded" 3 (Trace.recorded tr);
  (match Trace.events tr with
  | [ (5, Trace.Msg_send { tag = "get"; _ }); (9, Trace.Fault _); (12, _) ] -> ()
  | _ -> Alcotest.fail "unexpected event list");
  Alcotest.(check (list string)) "render matches legacy formats"
    [
      "[t=5] msg get 0->1 (8w)";
      "[t=9] read fault node 1 addr 64 (block 8)";
      "[t=12] barrier release (4 nodes)";
    ]
    (Trace.dump (Trace.events tr))

let test_trace_wraparound_typed () =
  let tr = Trace.create ~capacity:2 in
  List.iteri
    (fun i name -> Trace.emit tr ~time:i (Trace.Directive { node = 0; name }))
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "all recorded" 3 (Trace.recorded tr);
  (match Trace.events tr with
  | [ (1, Trace.Directive { name = "b"; _ }); (2, Trace.Directive { name = "c"; _ }) ]
    -> ()
  | _ -> Alcotest.fail "ring must keep the newest events, oldest first")

let test_engine_pending () =
  let e = Engine.create () in
  Engine.schedule e ~at:1 (fun () -> ());
  Engine.schedule e ~at:2 (fun () -> ());
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  ignore (Engine.step e);
  Alcotest.(check int) "pending after step" 1 (Engine.pending e)

let test_costs_default_sane () =
  let c = Costs.default in
  Alcotest.(check bool) "remote >> local" true
    (c.Costs.msg_fixed + c.Costs.handler_occupancy > 50 * c.Costs.cpu_op)

let test_costs_free () =
  Alcotest.(check int) "free fault" 0 Costs.free.Costs.fault_trap

let test_costs_scale () =
  let c = Costs.scale Costs.default 2.0 in
  Alcotest.(check int) "msg doubled" (2 * Costs.default.Costs.msg_fixed) c.Costs.msg_fixed;
  Alcotest.(check int) "cpu_op unchanged" Costs.default.Costs.cpu_op c.Costs.cpu_op

let prop_events_fire_in_time_order =
  QCheck.Test.make ~name:"events fire in nondecreasing time order" ~count:100
    QCheck.(list (int_bound 1000))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter (fun t -> Engine.schedule e ~at:t (fun () -> fired := t :: !fired)) times;
      Engine.run e;
      let order = List.rev !fired in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | [ _ ] | [] -> true
      in
      nondecreasing order && List.length order = List.length times)

let prop_engine_now_never_decreases =
  QCheck.Test.make ~name:"clock monotone under cascading schedules" ~count:50
    QCheck.(list (int_bound 50))
    (fun delays ->
      let e = Engine.create () in
      let ok = ref true in
      let last = ref 0 in
      List.iter
        (fun d ->
          Engine.schedule e ~at:d (fun () ->
              if Engine.now e < !last then ok := false;
              last := Engine.now e))
        delays;
      Engine.run e;
      !ok)

let () =
  Alcotest.run "lcm_sim"
    [
      ( "engine",
        [
          ("empty", `Quick, test_engine_empty);
          ("ordering", `Quick, test_engine_ordering);
          ("past rejected", `Quick, test_engine_past_rejected);
          ("cascading", `Quick, test_engine_cascading);
          ("event limit", `Quick, test_engine_limit);
          ("event limit exact", `Quick, test_engine_limit_exact);
          ("negative limit rejected", `Quick, test_engine_negative_limit_rejected);
          ("pending", `Quick, test_engine_pending);
          ("equal-timestamp storm", `Quick, test_storm_order);
          ("repeat stable", `Quick, test_storm_repeat_stable);
          ("limit parity", `Quick, test_limit_parity);
          ("budget parity", `Quick, test_budget_parity);
          ("crash mid-burst", `Quick, test_crash_mid_burst);
          ("guards", `Quick, test_guards);
        ] );
      ( "trace",
        [
          ("typed events", `Quick, test_trace_typed_events);
          ("wraparound", `Quick, test_trace_wraparound_typed);
        ] );
      ( "costs",
        [
          ("default sane", `Quick, test_costs_default_sane);
          ("free", `Quick, test_costs_free);
          ("scale", `Quick, test_costs_scale);
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_events_fire_in_time_order; prop_engine_now_never_decreases ] );
    ]
