(* Tests for deterministic network fault injection and the reliable
   (ack/timeout/retransmission) transport layered on top. *)

open Lcm_net
module Engine = Lcm_sim.Engine
module Stats = Lcm_util.Stats

(* The closure form of a send: the continuation rides as the payload of
   one static delivery handler. *)
let deliver k arrival _ = k ~arrival

let send net ~src ~dst ~words ?tag ~at k =
  Network.send_call net ~src ~dst ~words ?tag ~at deliver k 0

let send_reliable net ~src ~dst ~words ?tag ~at k =
  Network.send_reliable_call net ~src ~dst ~words ?tag ~at deliver k 0

let mk_net ?faults () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let net =
    Network.create ?faults ~engine ~costs:Lcm_sim.Costs.default ~stats
      ~topology:Topology.Crossbar ~nnodes:4 ()
  in
  (engine, stats, net)

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_make_validation () =
  let bad msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  bad "Faults.make: drop not in [0,1]" (fun () ->
      ignore (Faults.make ~drop:1.5 ~seed:1 ()));
  bad "Faults.make: dup not in [0,1]" (fun () ->
      ignore (Faults.make ~dup:(-0.1) ~seed:1 ()));
  (* NaN fails every comparison, so each range check must reject it *)
  bad "Faults.make: drop not in [0,1]" (fun () ->
      ignore (Faults.make ~drop:nan ~seed:1 ()));
  bad "Faults.make: dup not in [0,1]" (fun () ->
      ignore (Faults.make ~dup:nan ~seed:1 ()));
  bad "Faults.make: jitter must be >= 0" (fun () ->
      ignore (Faults.make ~jitter:(-1) ~seed:1 ()));
  bad "Faults.make: max_retries must be >= 0" (fun () ->
      ignore (Faults.make ~max_retries:(-1) ~seed:1 ()));
  bad "Faults.make: malformed down window" (fun () ->
      ignore
        (Faults.make
           ~down:[ { Faults.w_src = None; w_dst = None; from_t = 10; until_t = 5 } ]
           ~seed:1 ()))

let test_down_windows_sorted_non_overlapping () =
  let w ?src ?dst from_t until_t =
    { Faults.w_src = src; w_dst = dst; from_t; until_t }
  in
  let bad msg windows =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Faults.make ~down:windows ~seed:1 ()))
  in
  (* overlapping on the same (wildcard) channel *)
  bad
    "Faults.make: down windows on the same channel must be sorted and \
     non-overlapping: [0,20) is not before [10,30)"
    [ w 0 20; w 10 30 ];
  (* out of order: sorted input is part of the contract *)
  bad
    "Faults.make: down windows on the same channel must be sorted and \
     non-overlapping: [50,60) is not before [10,20)"
    [ w 50 60; w 10 20 ];
  (* a wildcard channel intersects every concrete one *)
  bad
    "Faults.make: down windows on the same channel must be sorted and \
     non-overlapping: [0,20) is not before [5,8)"
    [ w 0 20; w ~src:1 ~dst:2 5 8 ];
  (* disjoint channels may overlap freely *)
  let ok windows = ignore (Faults.make ~down:windows ~seed:1 ()) in
  ok [ w ~src:0 0 20; w ~src:1 10 30 ];
  ok [ w ~src:0 ~dst:1 0 20; w ~src:0 ~dst:2 0 20 ];
  (* touching windows ([a,b) then [b,c)) are non-overlapping *)
  ok [ w 0 10; w 10 20 ];
  (* named profiles keep validating across the rate range *)
  List.iter
    (fun rate ->
      List.iter
        (fun name ->
          match Faults.of_profile name ~rate ~seed:3 with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "profile %s at rate %g rejected: %s" name rate e)
        Faults.profiles)
    [ 0.0; 0.5; 1.0 ]

let test_profiles_parse () =
  List.iter
    (fun name ->
      match Faults.of_profile name ~rate:0.1 ~seed:3 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "profile %s rejected: %s" name e)
    ("none" :: Faults.profiles);
  Alcotest.(check bool) "unknown profile rejected" true
    (Result.is_error (Faults.of_profile "gremlins" ~rate:0.1 ~seed:3));
  Alcotest.(check bool) "rate out of range rejected" true
    (Result.is_error (Faults.of_profile "drop" ~rate:1.5 ~seed:3));
  Alcotest.(check bool) "NaN rate rejected" true
    (Result.is_error (Faults.of_profile "drop" ~rate:nan ~seed:3));
  (match Faults.of_profile "drop-noretx" ~rate:0.2 ~seed:3 with
  | Ok plan ->
    Alcotest.(check bool) "noretx profile disables retransmission" false
      plan.Faults.retransmit
  | Error e -> Alcotest.fail e)

let test_link_down_windows () =
  let plan =
    Faults.make
      ~down:
        [
          { Faults.w_src = None; w_dst = Some 2; from_t = 100; until_t = 200 };
          { Faults.w_src = Some 1; w_dst = None; from_t = 300; until_t = 301 };
        ]
      ~seed:1 ()
  in
  let check msg want ~src ~dst ~at =
    Alcotest.(check bool) msg want (Faults.link_down plan ~src ~dst ~at)
  in
  check "inside dst window" true ~src:0 ~dst:2 ~at:150;
  check "window start inclusive" true ~src:3 ~dst:2 ~at:100;
  check "window end exclusive" false ~src:3 ~dst:2 ~at:200;
  check "other dst unaffected" false ~src:0 ~dst:1 ~at:150;
  check "src window" true ~src:1 ~dst:3 ~at:300;
  check "src window other src" false ~src:0 ~dst:3 ~at:300

(* ------------------------------------------------------------------ *)
(* Bus machine under a fault plan                                      *)
(* ------------------------------------------------------------------ *)

let test_bus_flush_tail_drains () =
  (* A fault-armed machine under MSI whose tail is a long run of FLUSH
     grants, none of which resumes a fiber: every node writes block A,
     then block B with room for one line, so each B grant evicts dirty A
     and queues its writeback behind all other traffic.  The plan acts on
     the interconnect, which a bus machine does not use; the run drains,
     every writeback lands and the audit is clean. *)
  let module Machine = Lcm_tempest.Machine in
  let nnodes = 100 in
  let plan = Faults.make ~seed:1 () in
  let m =
    Machine.create ~faults:plan ~capacity_blocks:1 ~nnodes ~words_per_block:8 ()
  in
  let p = Lcm_core.Proto.install ~policy:Lcm_core.Policy.msi m in
  let base =
    Lcm_mem.Gmem.alloc (Machine.gmem m) ~dist:Lcm_mem.Gmem.Interleaved
      ~nwords:(2 * nnodes * 8)
  in
  Array.iter
    (fun n ->
      let a = base + (2 * Machine.id n * 8) in
      Machine.spawn m n (fun () ->
          Lcm_tempest.Memeff.store a 1;
          Lcm_tempest.Memeff.store (a + 8) 2))
    (Machine.nodes m);
  Machine.run_to_quiescence m;
  (* A node's dirty A is written back unless A is its home line, which is
     never evicted, or B is, whose install evicts nothing. *)
  let home = Lcm_mem.Gmem.home_of_addr (Machine.gmem m) in
  let evicting =
    List.length
      (List.filter
         (fun i ->
           let a = base + (2 * i * 8) in
           home a <> i && home (a + 8) <> i)
         (List.init nnodes Fun.id))
  in
  Alcotest.(check bool) "a long FLUSH tail" true (evicting > nnodes / 2);
  Alcotest.(check int) "one FLUSH per evicting node" evicting
    (Stats.get (Machine.stats m) "bus.flush");
  for i = 0 to nnodes - 1 do
    let a = base + (2 * i * 8) in
    Alcotest.(check (pair int int))
      (Printf.sprintf "node %d's writes" i)
      (1, 2)
      (Lcm_core.Proto.peek p a, Lcm_core.Proto.peek p (a + 8))
  done;
  Alcotest.(check (result unit (list string))) "audit" (Ok ())
    (Lcm_core.Proto.check_invariants p)

(* ------------------------------------------------------------------ *)
(* Lossy path: drops are deterministic and counted                     *)
(* ------------------------------------------------------------------ *)

let lossy_workload plan =
  let engine, stats, net = mk_net ~faults:plan () in
  let delivered = ref 0 in
  for i = 0 to 99 do
    send net ~src:(i mod 3) ~dst:3 ~words:4 ~tag:"w" ~at:(i * 7)
      (fun ~arrival:_ -> incr delivered)
  done;
  Engine.run engine;
  (!delivered, Stats.counters stats, Stats.samples stats)

let test_lossy_drops_replay () =
  let plan = Faults.make ~drop:0.2 ~dup:0.1 ~jitter:5 ~seed:11 () in
  let d1, c1, s1 = lossy_workload plan in
  let d2, c2, s2 = lossy_workload plan in
  Alcotest.(check int) "same deliveries" d1 d2;
  Alcotest.(check bool) "some drops happened" true
    (List.assoc "fault.drops" c1 > 0);
  Alcotest.(check bool) "some dups happened" true
    (List.assoc "fault.dups" c1 > 0);
  Alcotest.(check bool) "identical counters" true (c1 = c2);
  Alcotest.(check bool) "identical samples" true (s1 = s2);
  (* a different fault seed gives a different (but still valid) outcome *)
  let _, c3, _ = lossy_workload (Faults.make ~drop:0.2 ~dup:0.1 ~jitter:5 ~seed:12 ()) in
  Alcotest.(check bool) "different seed, different decisions" true (c1 <> c3)

let test_link_down_blackholes () =
  (* all channels down for the whole run: nothing is delivered, and the
     drops are counted *)
  let plan =
    Faults.make
      ~down:[ { Faults.w_src = None; w_dst = None; from_t = 0; until_t = 1_000_000 } ]
      ~seed:1 ()
  in
  let engine, stats, net = mk_net ~faults:plan () in
  let delivered = ref 0 in
  send net ~src:0 ~dst:1 ~words:4 ~tag:"w" ~at:0 (fun ~arrival:_ ->
      incr delivered);
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  Alcotest.(check int) "drop counted" 1 (Stats.get stats "fault.drops");
  Alcotest.(check int) "not counted as sent" 0 (Stats.get stats "net.msgs")

(* ------------------------------------------------------------------ *)
(* Reliable path                                                       *)
(* ------------------------------------------------------------------ *)

let test_reliable_without_plan_is_plain_send () =
  let engine, stats, net = mk_net () in
  let arrived = ref (-1) in
  send_reliable net ~src:0 ~dst:1 ~words:8 ~tag:"t" ~at:100
    (fun ~arrival -> arrived := arrival);
  Engine.run engine;
  Alcotest.(check int) "same arrival as send"
    (100 + Network.latency net ~src:0 ~dst:1 ~words:8)
    !arrived;
  Alcotest.(check int) "no acks" 1 (Stats.get stats "net.msgs");
  Alcotest.(check int) "no retransmits" 0 (Stats.get stats "fault.retransmits")

(* The reliable transport under fault churn, across drop → retransmit →
   late-duplicate-ack cycles.  Every copy, ack and timer rides the
   engine's pooled event record: with Pool.debug on, every release
   poisons the record and rejects double releases, so a transport bug
   that recycles an event still in use fails loudly here instead of
   corrupting a later message.  Each message owns its sender-side
   record, so a late duplicate ack writes only into its own.  Delivery
   must stay exactly-once through the [send_reliable_call] convention. *)
let prop_pooled_transport_under_faults =
  QCheck.Test.make ~name:"pooled transport survives drop/retransmit cycles"
    ~count:40
    QCheck.(triple (int_bound 9999) (int_bound 30) (int_bound 30))
    (fun (seed, drop_pct, dup_pct) ->
      let saved = !Lcm_util.Pool.debug in
      Lcm_util.Pool.debug := true;
      Fun.protect
        ~finally:(fun () -> Lcm_util.Pool.debug := saved)
        (fun () ->
          let plan =
            Faults.make
              ~drop:(float_of_int drop_pct /. 100.)
              ~dup:(float_of_int dup_pct /. 100.)
              ~jitter:3 ~max_retries:50 ~seed ()
          in
          let engine, _stats, net = mk_net ~faults:plan () in
          let n = 40 in
          let counts = Array.make n 0 in
          let deliver (counts : int array) _arrival i =
            counts.(i) <- counts.(i) + 1
          in
          for i = 0 to n - 1 do
            Network.send_reliable_call net ~src:(i mod 3) ~dst:3 ~words:3
              ~tag:"w" ~at:(i * 2) deliver counts i
          done;
          Engine.run engine;
          Array.for_all (fun c -> c = 1) counts))

let test_reliable_exactly_once_under_drops () =
  let plan = Faults.make ~drop:0.25 ~dup:0.15 ~jitter:4 ~seed:5 () in
  let engine, stats, net = mk_net ~faults:plan () in
  let n = 60 in
  let counts = Array.make n 0 in
  let order = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let src = i mod 3 in
    send_reliable net ~src ~dst:3 ~words:4 ~tag:"w" ~at:(i * 3)
      (fun ~arrival:_ ->
        counts.(i) <- counts.(i) + 1;
        let prev = Option.value (Hashtbl.find_opt order src) ~default:[] in
        Hashtbl.replace order src (i :: prev))
  done;
  Engine.run engine;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "message %d delivered once" i) 1 c)
    counts;
  Hashtbl.iter
    (fun src l ->
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | [ _ ] | [] -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "channel %d->3 released in send order" src)
        true
        (increasing (List.rev l)))
    order;
  Alcotest.(check bool) "retransmissions happened" true
    (Stats.get stats "fault.retransmits" > 0)

let test_reliable_rides_out_link_flap () =
  (* the link is down when the message is first sent; retransmission
     backoff must carry it past the window *)
  let plan =
    Faults.make
      ~down:[ { Faults.w_src = None; w_dst = None; from_t = 0; until_t = 400 } ]
      ~seed:2 ()
  in
  let engine, stats, net = mk_net ~faults:plan () in
  let arrived = ref (-1) in
  send_reliable net ~src:0 ~dst:1 ~words:4 ~tag:"w" ~at:0
    (fun ~arrival -> arrived := arrival);
  Engine.run engine;
  Alcotest.(check bool) "delivered after the window" true (!arrived >= 400);
  Alcotest.(check bool) "timeouts recorded" true
    (Stats.get stats "fault.timeouts" > 0);
  Alcotest.(check bool) "backoff sample recorded" true
    (List.mem_assoc "net.retx_backoff_cycles" (Stats.samples stats))

let test_reliable_unreachable_after_retry_cap () =
  let plan = Faults.make ~drop:1.0 ~max_retries:3 ~seed:1 () in
  let engine, stats, net = mk_net ~faults:plan () in
  send_reliable net ~src:0 ~dst:1 ~words:4 ~tag:"req" ~at:0
    (fun ~arrival:_ -> Alcotest.fail "must never deliver");
  (try
     Engine.run engine;
     Alcotest.fail "expected Net_unreachable"
   with Network.Net_unreachable { src; dst; tag; attempts } ->
     Alcotest.(check int) "src" 0 src;
     Alcotest.(check int) "dst" 1 dst;
     Alcotest.(check string) "tag" "req" tag;
     Alcotest.(check bool) "attempts exceed cap" true (attempts > 3));
  Alcotest.(check int) "every copy dropped" (Stats.get stats "fault.drops")
    (4 (* initial + 3 retries *))

(* A random reliable workload on the 4-node crossbar: message i goes from
   [src] to [(src + 1 + doff) mod 4], [words] long, sent at cycle 2i.  The
   engine runs at most [limit] events ([Failure] past them).  Returns the
   attempt count of a [Net_unreachable] that ended the run, each
   message's delivery count, whether every channel released its messages
   in send order, and the counters. *)
let reliable_workload ?limit plan msgs =
  let engine, stats, net = mk_net ~faults:plan () in
  let counts = Array.make (List.length msgs) 0 in
  let order = Hashtbl.create 8 in
  List.iteri
    (fun i (src, doff, words) ->
      let dst = (src + 1 + doff) mod 4 in
      send_reliable net ~src ~dst ~words ~tag:"p" ~at:(i * 2)
        (fun ~arrival:_ ->
          counts.(i) <- counts.(i) + 1;
          let chan = (src, dst) in
          let prev = Option.value (Hashtbl.find_opt order chan) ~default:[] in
          Hashtbl.replace order chan (i :: prev)))
    msgs;
  let unreachable =
    match Engine.run ?limit engine with
    | () -> None
    | exception Network.Net_unreachable { attempts; _ } -> Some attempts
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  let in_order =
    Hashtbl.fold (fun _ l acc -> acc && increasing (List.rev l)) order true
  in
  (unreachable, counts, in_order, Stats.counters stats)

let workload_arb =
  QCheck.(
    list_of_size
      Gen.(1 -- 25)
      (triple (int_bound 3) (int_bound 2) (int_range 1 16)))

let prop_reliable_exactly_once =
  (* any seeded plan with drop < 1 and retransmission on delivers every
     reliable send exactly once, in per-channel order; replaying the same
     (plan, workload) yields identical fault counters *)
  QCheck.Test.make ~name:"reliable transport: exactly-once under any plan"
    ~count:60
    QCheck.(
      quad (int_bound 1000) (pair (int_bound 30) (int_bound 30)) (int_bound 20)
        workload_arb)
    (fun (fseed, (drop_pct, dup_pct), jitter, msgs) ->
      let plan =
        Faults.make
          ~drop:(float_of_int drop_pct /. 100.)
          ~dup:(float_of_int dup_pct /. 100.)
          ~jitter ~max_retries:30 ~seed:fseed ()
      in
      let unreachable, counts, in_order, ctrs = reliable_workload plan msgs in
      let _, _, _, ctrs2 = reliable_workload plan msgs in
      unreachable = None
      && Array.for_all (fun c -> c = 1) counts
      && in_order && ctrs = ctrs2)

(* The retry cap ends every lossy run, whatever the loss: under any plan
   with retransmission on, a reliable workload either delivers every
   message exactly once, in per-channel order, or stops with
   [Net_unreachable] after [max_retries + 1] attempts, having delivered
   none twice.  Either way the engine runs at most 7 events per
   transmission (two payload copies, two ack copies per received copy and
   one timer); a run that needs more fails on the event limit. *)
let prop_retry_cap_ends_lossy_runs =
  QCheck.Test.make ~name:"retry cap ends every lossy run" ~count:100
    QCheck.(
      quad (int_bound 1000)
        (pair (int_bound 100) (int_bound 100))
        (int_bound 20) workload_arb)
    (fun (fseed, (drop_pct, dup_pct), jitter, msgs) ->
      let plan =
        Faults.make
          ~drop:(float_of_int drop_pct /. 100.)
          ~dup:(float_of_int dup_pct /. 100.)
          ~jitter ~seed:fseed ()
      in
      let transmissions = plan.Faults.max_retries + 1 in
      let unreachable, counts, in_order, _ =
        reliable_workload
          ~limit:(List.length msgs * transmissions * 7)
          plan msgs
      in
      (match unreachable with
      | None -> Array.for_all (fun c -> c = 1) counts
      | Some attempts ->
        attempts = transmissions && Array.for_all (fun c -> c <= 1) counts)
      && in_order)

(* ------------------------------------------------------------------ *)
(* Full stack: stress harness over an unreliable interconnect          *)
(* ------------------------------------------------------------------ *)

let fault_stress_policy policy () =
  let plan =
    match Lcm_net.Faults.of_profile "chaos" ~rate:0.05 ~seed:7 with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  match
    Lcm_harness.Stress.run ~policy ~faults:plan ~cases:6 ~seed:1 ()
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_noretx_stalls_deterministically () =
  (* losing messages for good must surface as a typed stall, not a hang,
     and identically on every run *)
  let plan = Faults.make ~drop:0.3 ~retransmit:false ~seed:7 () in
  let outcome () =
    Lcm_harness.Stress.run ~policy:Lcm_core.Policy.stache ~faults:plan
      ~cases:1 ~seed:1 ()
  in
  match (outcome (), outcome ()) with
  | Error e1, Error e2 ->
    Alcotest.(check bool) "reported as a stall" true
      (let has_sub s sub =
         let n = String.length s and m = String.length sub in
         let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
         go 0
       in
       has_sub e1 "stalled" || has_sub e1 "unreachable");
    Alcotest.(check string) "deterministic failure report" e1 e2
  | _ -> Alcotest.fail "expected the lossy no-retx run to fail"

(* A machine whose every message is lost stops at the retry cap, naming
   the channel it gave up on: the first remote read of the 32-node
   stencil, node 1 asking home node 0 for a read-only copy. *)
let test_total_loss_names_the_channel () =
  let module Config = Lcm_harness.Config in
  let plan =
    match Faults.of_profile "drop" ~rate:1.0 ~seed:7 with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let rt =
    Config.make_runtime
      { Config.default_machine with Config.faults = Some plan }
      Config.lcm_mcc ~schedule:Lcm_cstar.Schedule.Static
  in
  match Lcm_apps.Stencil.run rt (Lcm_apps.Stencil.params ~n:128 ~iters:2) with
  | _ -> Alcotest.fail "expected Net_unreachable"
  | exception Network.Net_unreachable { tag; src; dst; attempts } ->
    Alcotest.(check (pair string (triple int int int)))
      "tag, src, dst, attempts" ("get_ro", (1, 0, 13))
      (tag, (src, dst, attempts))

(* A typed failure has one wording wherever it is printed: a stress
   report, a failed fleet cell, a single run's negative verdict. *)
let test_typed_failure_wording () =
  Alcotest.(check string) "stall"
    "stalled: no delivery progress at clock 1907 (26 pending)"
    (Printexc.to_string
       (Lcm_tempest.Machine.Stalled { clock = 1907; pending = 26 }));
  Alcotest.(check string) "unreachable"
    "net unreachable: get_ro 1->0 gave up after 13 attempts"
    (Printexc.to_string
       (Network.Net_unreachable
          { src = 1; dst = 0; tag = "get_ro"; attempts = 13 }))

(* ------------------------------------------------------------------ *)
(* Stats samples omit empty series (empty-sample bugfix)              *)
(* ------------------------------------------------------------------ *)

let test_stats_summary_option () =
  let s = Stats.create () in
  let summary name = List.assoc_opt name (Stats.samples s) in
  Alcotest.(check bool) "never-observed series has no summary" true
    (summary "nope" = None);
  (* resolving a handle without writing must not create a summary *)
  let h = Stats.sample s "resolved_only" in
  ignore h;
  Alcotest.(check bool) "resolved-but-unwritten has no summary" true
    (summary "resolved_only" = None);
  Alcotest.(check (list string)) "samples listing omits empty series" []
    (List.map fst (Stats.samples s));
  (* a real all-zero observation is distinguishable from absence *)
  Stats.Handle.observe (Stats.sample s "zeros") 0.0;
  (match summary "zeros" with
  | Some sm ->
    Alcotest.(check int) "count" 1 sm.Stats.count;
    Alcotest.(check (float 0.0)) "min" 0.0 sm.Stats.min;
    Alcotest.(check (float 0.0)) "max" 0.0 sm.Stats.max
  | None -> Alcotest.fail "observed series must have a summary");
  let xs = Stats.sample s "xs" in
  Stats.Handle.observe xs 4.0;
  Stats.Handle.observe xs 2.0;
  match summary "xs" with
  | Some sm ->
    Alcotest.(check int) "count" 2 sm.Stats.count;
    Alcotest.(check (float 1e-9)) "mean" 3.0 sm.Stats.mean;
    Alcotest.(check (float 0.0)) "min" 2.0 sm.Stats.min;
    Alcotest.(check (float 0.0)) "max" 4.0 sm.Stats.max
  | None -> Alcotest.fail "observed series must have a summary"

let () =
  Alcotest.run "lcm_faults"
    [
      ( "plans",
        [
          ("make validation", `Quick, test_make_validation);
          ("down windows sorted/non-overlapping", `Quick,
           test_down_windows_sorted_non_overlapping);
          ("profiles parse", `Quick, test_profiles_parse);
          ("link-down windows", `Quick, test_link_down_windows);
        ] );
      ( "bus",
        [
          ("fault-armed FLUSH tail drains", `Quick, test_bus_flush_tail_drains);
        ] );
      ( "lossy",
        [
          ("drops replay bit-identically", `Quick, test_lossy_drops_replay);
          ("link down blackholes", `Quick, test_link_down_blackholes);
        ] );
      ( "reliable",
        [
          ("no plan = plain send", `Quick, test_reliable_without_plan_is_plain_send);
          ("exactly once under drops", `Quick, test_reliable_exactly_once_under_drops);
          ("rides out link flap", `Quick, test_reliable_rides_out_link_flap);
          ("unreachable after retry cap", `Quick,
           test_reliable_unreachable_after_retry_cap);
          QCheck_alcotest.to_alcotest prop_reliable_exactly_once;
          QCheck_alcotest.to_alcotest prop_pooled_transport_under_faults;
          QCheck_alcotest.to_alcotest prop_retry_cap_ends_lossy_runs;
        ] );
      ( "full stack",
        [
          ("stache under chaos", `Quick, fault_stress_policy Lcm_core.Policy.stache);
          ("lcm-scc under chaos", `Quick, fault_stress_policy Lcm_core.Policy.lcm_scc);
          ("lcm-mcc under chaos", `Quick, fault_stress_policy Lcm_core.Policy.lcm_mcc);
          ("lcm-mcc-update under chaos", `Quick,
           fault_stress_policy Lcm_core.Policy.lcm_mcc_update);
          ("msi under chaos", `Quick, fault_stress_policy Lcm_core.Policy.msi);
          ("mesi under chaos", `Quick, fault_stress_policy Lcm_core.Policy.mesi);
          ("moesi under chaos", `Quick, fault_stress_policy Lcm_core.Policy.moesi);
          ("no-retx stalls deterministically", `Quick,
           test_noretx_stalls_deterministically);
          ("total loss names the channel", `Quick,
           test_total_loss_names_the_channel);
          ("typed failures print one wording", `Quick,
           test_typed_failure_wording);
        ] );
      ( "stats",
        [ ("summary is optional", `Quick, test_stats_summary_option) ] );
    ]
