(* Tests for topologies and the network transport. *)

open Lcm_net

let test_crossbar_hops () =
  Alcotest.(check int) "self" 0 (Topology.hops Crossbar ~src:3 ~dst:3);
  Alcotest.(check int) "other" 1 (Topology.hops Crossbar ~src:0 ~dst:31)

let test_mesh_hops () =
  let t = Topology.Mesh2d { cols = 4 } in
  (* node = row*4 + col *)
  Alcotest.(check int) "adjacent" 1 (Topology.hops t ~src:0 ~dst:1);
  Alcotest.(check int) "diagonal" 2 (Topology.hops t ~src:0 ~dst:5);
  Alcotest.(check int) "far corner" 6 (Topology.hops t ~src:0 ~dst:15)

let test_fattree_hops () =
  let t = Topology.Fat_tree { arity = 4 } in
  Alcotest.(check int) "same leaf group" 2 (Topology.hops t ~src:0 ~dst:3);
  Alcotest.(check int) "next group" 4 (Topology.hops t ~src:0 ~dst:4);
  Alcotest.(check int) "across 32 nodes" 6 (Topology.hops t ~src:0 ~dst:31)

let test_fattree_symmetric () =
  let t = Topology.Fat_tree { arity = 4 } in
  for src = 0 to 15 do
    for dst = 0 to 15 do
      Alcotest.(check int) "symmetric"
        (Topology.hops t ~src ~dst)
        (Topology.hops t ~src:dst ~dst:src)
    done
  done

let test_topology_parse () =
  Alcotest.(check bool) "crossbar" true (Topology.of_string "crossbar" = Ok Crossbar);
  Alcotest.(check bool) "mesh" true
    (Topology.of_string "mesh:8" = Ok (Mesh2d { cols = 8 }));
  Alcotest.(check bool) "fattree" true
    (Topology.of_string "FatTree:4" = Ok (Fat_tree { arity = 4 }));
  (match Topology.of_string "ring" with
  | Error e ->
    Alcotest.(check string) "error enumerates accepted spellings"
      "unknown topology \"ring\" (expected crossbar, mesh:<cols> or \
       fattree:<arity>)"
      e
  | Ok _ -> Alcotest.fail "garbage accepted");
  Alcotest.(check bool) "bad mesh" true
    (match Topology.of_string "mesh:0" with Error _ -> true | Ok _ -> false)

let test_topology_roundtrip () =
  List.iter
    (fun t ->
      Alcotest.(check bool) (Topology.to_string t) true
        (Topology.of_string (Topology.to_string t) = Ok t))
    [ Topology.Crossbar; Mesh2d { cols = 8 }; Fat_tree { arity = 4 } ]

(* The closure form of a send: the continuation rides as the payload of
   one static delivery handler. *)
let deliver k arrival _ = k ~arrival

let send net ~src ~dst ~words ?tag ~at k =
  Network.send_call net ~src ~dst ~words ?tag ~at deliver k 0

let mk_net () =
  let engine = Lcm_sim.Engine.create () in
  let stats = Lcm_util.Stats.create () in
  let net =
    Network.create ~engine ~costs:Lcm_sim.Costs.default ~stats
      ~topology:Topology.Crossbar ~nnodes:4 ()
  in
  (engine, stats, net)

let test_network_latency_model () =
  let _, _, net = mk_net () in
  let c = Lcm_sim.Costs.default in
  Alcotest.(check int) "latency formula"
    (c.Lcm_sim.Costs.msg_fixed + c.Lcm_sim.Costs.msg_per_hop
   + (8 * c.Lcm_sim.Costs.msg_per_word))
    (Network.latency net ~src:0 ~dst:1 ~words:8)

let test_network_delivery () =
  let engine, stats, net = mk_net () in
  let arrived = ref (-1) in
  send net ~src:0 ~dst:1 ~words:8 ~tag:"t" ~at:100 (fun ~arrival ->
      arrived := arrival);
  Lcm_sim.Engine.run engine;
  Alcotest.(check int) "arrival time" (100 + Network.latency net ~src:0 ~dst:1 ~words:8)
    !arrived;
  Alcotest.(check int) "msg counted" 1 (Lcm_util.Stats.get stats "net.msgs");
  Alcotest.(check int) "tag counted" 1 (Lcm_util.Stats.get stats "msg.t");
  Alcotest.(check int) "words counted" 8 (Lcm_util.Stats.get stats "net.words")

let test_network_fifo_per_channel () =
  let engine, _, net = mk_net () in
  let log = ref [] in
  (* Second message is smaller (lower latency) but must not overtake. *)
  send net ~src:0 ~dst:1 ~words:32 ~tag:"big" ~at:0 (fun ~arrival:_ ->
      log := "big" :: !log);
  send net ~src:0 ~dst:1 ~words:1 ~tag:"small" ~at:1 (fun ~arrival:_ ->
      log := "small" :: !log);
  Lcm_sim.Engine.run engine;
  Alcotest.(check (list string)) "fifo" [ "big"; "small" ] (List.rev !log)

let test_network_distinct_channels_independent () =
  let engine, _, net = mk_net () in
  let log = ref [] in
  send net ~src:0 ~dst:1 ~words:32 ~tag:"slow" ~at:0 (fun ~arrival:_ ->
      log := "slow" :: !log);
  send net ~src:2 ~dst:3 ~words:1 ~tag:"fast" ~at:0 (fun ~arrival:_ ->
      log := "fast" :: !log);
  Lcm_sim.Engine.run engine;
  Alcotest.(check (list string)) "no cross-channel ordering" [ "fast"; "slow" ]
    (List.rev !log)

let test_network_bad_node () =
  let _, _, net = mk_net () in
  Alcotest.check_raises "dst range" (Invalid_argument "Network.send: dst out of range")
    (fun () -> send net ~src:0 ~dst:4 ~words:1 ~at:0 (fun ~arrival:_ -> ()))

let test_network_rejects_nonpositive_words () =
  let _, _, net = mk_net () in
  Alcotest.check_raises "zero words"
    (Invalid_argument "Network.send: words must be positive") (fun () ->
      send net ~src:0 ~dst:1 ~words:0 ~at:0 (fun ~arrival:_ -> ()));
  Alcotest.check_raises "negative words"
    (Invalid_argument "Network.send: words must be positive") (fun () ->
      send net ~src:0 ~dst:1 ~words:(-3) ~at:0 (fun ~arrival:_ -> ()))

let test_network_rejects_negative_at () =
  let _, _, net = mk_net () in
  Alcotest.check_raises "negative at"
    (Invalid_argument "Network.send: at must be >= 0") (fun () ->
      send net ~src:0 ~dst:1 ~words:1 ~at:(-1) (fun ~arrival:_ -> ()))

let test_network_node_bound () =
  (* the reliable transport's reorder key packs the channel into 20 bits,
     so node counts past 1024 would alias channels: rejected up front *)
  let create nnodes () =
    ignore
      (Network.create ~engine:(Lcm_sim.Engine.create ())
         ~costs:Lcm_sim.Costs.default ~stats:(Lcm_util.Stats.create ())
         ~topology:Topology.Crossbar ~nnodes ())
  in
  let rejects nnodes =
    Alcotest.check_raises (Printf.sprintf "nnodes=%d" nnodes)
      (Invalid_argument
         (Printf.sprintf
            "Network.create: nnodes=%d outside [1, 1024] (the reliable \
             transport's reorder key packs the channel into 20 bits)"
            nnodes))
      (create nnodes)
  in
  rejects 0;
  rejects 1025;
  rejects 4096;
  Alcotest.(check int) "bound" 1024 Network.max_nodes;
  create 1 ();
  create Network.max_nodes ()

let test_network_loopback_semantics () =
  (* src = dst: delivered at [at + msg_fixed], counted, but no channel
     occupancy — a later loopback is not serialized behind it, and the
     loopback does not delay real channel traffic. *)
  let engine, stats, net = mk_net () in
  let c = Lcm_sim.Costs.default in
  let arrivals = ref [] in
  send net ~src:2 ~dst:2 ~words:8 ~tag:"self" ~at:100 (fun ~arrival ->
      arrivals := ("a", arrival) :: !arrivals);
  send net ~src:2 ~dst:2 ~words:8 ~tag:"self" ~at:100 (fun ~arrival ->
      arrivals := ("b", arrival) :: !arrivals);
  Lcm_sim.Engine.run engine;
  let fixed = c.Lcm_sim.Costs.msg_fixed in
  Alcotest.(check (list (pair string int)))
    "both arrive at at + msg_fixed, no serialization"
    [ ("a", 100 + fixed); ("b", 100 + fixed) ]
    (List.rev !arrivals);
  Alcotest.(check int) "loopback latency is msg_fixed" fixed
    (Network.latency net ~src:2 ~dst:2 ~words:8);
  Alcotest.(check int) "loopback messages counted" 2
    (Lcm_util.Stats.get stats "net.msgs");
  Alcotest.(check int) "loopback words counted" 16
    (Lcm_util.Stats.get stats "net.words")

let test_network_clamps_to_engine_now () =
  let engine, _, net = mk_net () in
  Lcm_sim.Engine.schedule engine ~at:10_000 (fun () ->
      (* a handler reacting to an old message sends "in the past" *)
      send net ~src:0 ~dst:1 ~words:1 ~tag:"late" ~at:0 (fun ~arrival ->
          Alcotest.(check bool) "not before now" true (arrival >= 10_000)));
  Lcm_sim.Engine.run engine

let test_network_bandwidth_serializes () =
  (* Two equal-size back-to-back messages: the second must arrive at least
     the first message's transmission time later, not a fixed 1 cycle. *)
  let engine, _, net = mk_net () in
  let arrivals = ref [] in
  send net ~src:0 ~dst:1 ~words:8 ~tag:"a" ~at:0 (fun ~arrival ->
      arrivals := arrival :: !arrivals);
  send net ~src:0 ~dst:1 ~words:8 ~tag:"b" ~at:0 (fun ~arrival ->
      arrivals := arrival :: !arrivals);
  Lcm_sim.Engine.run engine;
  match List.rev !arrivals with
  | [ a1; a2 ] ->
    Alcotest.(check int) "spaced by transmission time"
      (a1 + Network.transmission_time net ~words:8)
      a2
  | _ -> Alcotest.fail "expected two deliveries"

let prop_network_channel_occupancy =
  (* On any channel, message k+1 arrives no earlier than message k's
     arrival plus message k's transmission time (words * msg_per_word,
     min 1) — FIFO order falls out of the spacing. *)
  QCheck.Test.make ~name:"per-channel arrivals spaced by transmission time"
    ~count:100
    QCheck.(
      list_of_size
        Gen.(1 -- 30)
        (triple (int_bound 3) (int_bound 2) (int_range 1 40)))
    (fun msgs ->
      let engine = Lcm_sim.Engine.create () in
      let stats = Lcm_util.Stats.create () in
      let net =
        Network.create ~engine ~costs:Lcm_sim.Costs.default ~stats
          ~topology:Topology.Crossbar ~nnodes:4 ()
      in
      let log = Hashtbl.create 16 in
      List.iter
        (fun (src, doff, words) ->
          (* loopback channels have no occupancy; keep src <> dst *)
          let dst = (src + 1 + doff) mod 4 in
          send net ~src ~dst ~words ~tag:"p" ~at:0 (fun ~arrival ->
              let chan = (src, dst) in
              let prev = Option.value (Hashtbl.find_opt log chan) ~default:[] in
              Hashtbl.replace log chan ((arrival, words) :: prev)))
        msgs;
      Lcm_sim.Engine.run engine;
      Hashtbl.fold
        (fun _ l acc ->
          let rec spaced = function
            | (a1, w1) :: ((a2, _) :: _ as rest) ->
              a2 >= a1 + Network.transmission_time net ~words:w1
              && spaced rest
            | [ _ ] | [] -> true
          in
          acc && spaced (List.rev l))
        log true)

let prop_network_delivers_everything_fifo =
  (* random message batches: every message delivered exactly once, and
     per-channel delivery order matches send order *)
  QCheck.Test.make ~name:"all messages delivered, FIFO per channel" ~count:60
    QCheck.(list (triple (int_bound 3) (int_bound 3) (int_range 1 40)))
    (fun msgs ->
      let engine = Lcm_sim.Engine.create () in
      let stats = Lcm_util.Stats.create () in
      let net =
        Network.create ~engine ~costs:Lcm_sim.Costs.default ~stats
          ~topology:Topology.Crossbar ~nnodes:4 ()
      in
      let delivered = Hashtbl.create 16 in
      List.iteri
        (fun seq (src, dst, words) ->
          send net ~src ~dst ~words ~tag:"p" ~at:0 (fun ~arrival:_ ->
              let chan = (src, dst) in
              let prev = Option.value (Hashtbl.find_opt delivered chan) ~default:[] in
              Hashtbl.replace delivered chan (seq :: prev)))
        msgs;
      Lcm_sim.Engine.run engine;
      let total = Hashtbl.fold (fun _ l acc -> acc + List.length l) delivered 0 in
      total = List.length msgs
      && Hashtbl.fold
           (fun _ l acc ->
             acc
             && (* seqs per channel must be increasing once un-reversed *)
             let rec increasing = function
               | a :: (b :: _ as rest) -> a < b && increasing rest
               | [ _ ] | [] -> true
             in
             increasing (List.rev l))
           delivered true)

(* Regression: the Msg_send trace event used to be stamped with the
   caller's [at] even when channel occupancy delayed injection; it must
   carry the actual injection time, and the stall must be recorded in the
   net.channel_stall_cycles sample. *)
let test_network_stall_sample_and_send_stamp () =
  let engine, stats, net = mk_net () in
  let tr = Lcm_sim.Trace.create ~capacity:16 in
  Network.set_trace net (Some tr);
  let arrivals = ref [] in
  send net ~src:0 ~dst:1 ~words:8 ~tag:"a" ~at:0 (fun ~arrival ->
      arrivals := arrival :: !arrivals);
  send net ~src:0 ~dst:1 ~words:8 ~tag:"b" ~at:0 (fun ~arrival ->
      arrivals := arrival :: !arrivals);
  Lcm_sim.Engine.run engine;
  let lat = Network.latency net ~src:0 ~dst:1 ~words:8 in
  let second_arrival =
    match List.rev !arrivals with
    | [ _; a2 ] -> a2
    | _ -> Alcotest.fail "expected two deliveries"
  in
  let sends =
    List.filter_map
      (function
        | t, Lcm_sim.Trace.Msg_send { tag; _ } -> Some (tag, t) | _ -> None)
      (Lcm_sim.Trace.events tr)
  in
  Alcotest.(check (list (pair string int)))
    "send events stamped at injection time"
    [ ("a", 0); ("b", second_arrival - lat) ]
    sends;
  let stall = Network.transmission_time net ~words:8 in
  match
    List.assoc_opt "net.channel_stall_cycles" (Lcm_util.Stats.samples stats)
  with
  | Some sm ->
    Alcotest.(check int) "one stall observed" 1 sm.Lcm_util.Stats.count;
    Alcotest.(check (float 1e-9)) "stall magnitude" (float_of_int stall)
      sm.Lcm_util.Stats.mean
  | None -> Alcotest.fail "no stall observed"

let all_topos =
  [ Topology.Crossbar; Topology.Mesh2d { cols = 8 }; Topology.Fat_tree { arity = 4 } ]

let prop_hops_symmetric_zero_iff_self =
  QCheck.Test.make ~name:"hops symmetric; zero iff src = dst" ~count:300
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (src, dst) ->
      List.for_all
        (fun t ->
          let h = Topology.hops t ~src ~dst in
          h = Topology.hops t ~src:dst ~dst:src && (h = 0) = (src = dst))
        all_topos)

module Barrier = Lcm_core.Barrier

let barrier_styles = [ Barrier.Constant; Barrier.Flat; Barrier.Tree 2; Barrier.Tree 4 ]

let prop_barrier_release_after_latest_join =
  QCheck.Test.make ~name:"barrier release >= latest join, every style" ~count:200
    QCheck.(list_of_size Gen.(1 -- 32) (int_bound 10_000))
    (fun joins ->
      let join_times = Array.of_list joins in
      let latest = Array.fold_left max 0 join_times in
      List.for_all
        (fun style ->
          Barrier.release_time ~costs:Lcm_sim.Costs.default ~style ~join_times
          >= latest)
        barrier_styles)

let prop_barrier_monotone_in_joins =
  QCheck.Test.make ~name:"barrier release monotone in each join time" ~count:200
    QCheck.(triple
              (list_of_size Gen.(1 -- 16) (int_bound 10_000))
              (int_bound 15) (int_bound 500))
    (fun (joins, idx, bump) ->
      let join_times = Array.of_list joins in
      let idx = idx mod Array.length join_times in
      List.for_all
        (fun style ->
          let base =
            Barrier.release_time ~costs:Lcm_sim.Costs.default ~style ~join_times
          in
          let bumped = Array.copy join_times in
          bumped.(idx) <- bumped.(idx) + bump;
          Barrier.release_time ~costs:Lcm_sim.Costs.default ~style
            ~join_times:bumped
          >= base)
        barrier_styles)

let prop_fattree_hops_bounded =
  QCheck.Test.make ~name:"fat tree hops bounded by 2*height" ~count:200
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (src, dst) ->
      let h = Topology.hops (Fat_tree { arity = 4 }) ~src ~dst in
      h >= 0 && h <= 8 && (h = 0) = (src = dst))

let prop_mesh_triangle =
  QCheck.Test.make ~name:"mesh triangle inequality" ~count:200
    QCheck.(triple (int_bound 63) (int_bound 63) (int_bound 63))
    (fun (a, b, c) ->
      let t = Topology.Mesh2d { cols = 8 } in
      Topology.hops t ~src:a ~dst:c
      <= Topology.hops t ~src:a ~dst:b + Topology.hops t ~src:b ~dst:c)

let () =
  Alcotest.run "lcm_net"
    [
      ( "topology",
        [
          ("crossbar", `Quick, test_crossbar_hops);
          ("mesh", `Quick, test_mesh_hops);
          ("fattree", `Quick, test_fattree_hops);
          ("fattree symmetric", `Quick, test_fattree_symmetric);
          ("parse", `Quick, test_topology_parse);
          ("roundtrip", `Quick, test_topology_roundtrip);
          QCheck_alcotest.to_alcotest prop_fattree_hops_bounded;
          QCheck_alcotest.to_alcotest prop_mesh_triangle;
          QCheck_alcotest.to_alcotest prop_hops_symmetric_zero_iff_self;
        ] );
      ( "barrier",
        [
          QCheck_alcotest.to_alcotest prop_barrier_release_after_latest_join;
          QCheck_alcotest.to_alcotest prop_barrier_monotone_in_joins;
        ] );
      ( "network",
        [
          ("latency model", `Quick, test_network_latency_model);
          ("delivery", `Quick, test_network_delivery);
          ("fifo per channel", `Quick, test_network_fifo_per_channel);
          ("bandwidth serializes", `Quick, test_network_bandwidth_serializes);
          ("channels independent", `Quick, test_network_distinct_channels_independent);
          ("bad node", `Quick, test_network_bad_node);
          ("rejects nonpositive words", `Quick,
           test_network_rejects_nonpositive_words);
          ("rejects negative at", `Quick, test_network_rejects_negative_at);
          ("rejects node counts past 1024", `Quick, test_network_node_bound);
          ("loopback semantics", `Quick, test_network_loopback_semantics);
          ("clamps to now", `Quick, test_network_clamps_to_engine_now);
          ("stall sample and send stamp", `Quick,
           test_network_stall_sample_and_send_stamp);
          QCheck_alcotest.to_alcotest prop_network_channel_occupancy;
          QCheck_alcotest.to_alcotest prop_network_delivers_everything_fifo;
        ] );
    ]
