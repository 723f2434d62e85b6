(* Tests for the synthetic workload generator: determinism, cross-protocol
   agreement, and the expected traffic gradient across sharing patterns. *)

open Lcm_apps
open Lcm_cstar
module Policy = Lcm_core.Policy
module Machine = Lcm_tempest.Machine

let mk ?(nnodes = 8) ?(schedule = Schedule.Static) policy =
  let m =
    Machine.create ~nnodes ~words_per_block:8
      ~topology:(Lcm_net.Topology.Fat_tree { arity = 4 })
      ()
  in
  let p = Lcm_core.Proto.install ~policy m in
  Runtime.create p ~schedule

let combos =
  [
    ("stache", Policy.stache);
    ("scc", Policy.lcm_scc);
    ("mcc", Policy.lcm_mcc);
  ]

let params sharing = { Synthetic.default with Synthetic.sharing }

let test_parse () =
  Alcotest.(check bool) "private" true
    (Synthetic.sharing_of_string "private" = Ok `Private);
  Alcotest.(check bool) "neighbour" true
    (Synthetic.sharing_of_string "neighbor" = Ok `Neighbour);
  Alcotest.(check bool) "hot" true (Synthetic.sharing_of_string "hot:4" = Ok (`Hot 4));
  Alcotest.(check bool) "roundtrip" true
    (Synthetic.sharing_of_string (Synthetic.sharing_to_string `Random) = Ok `Random);
  Alcotest.(check bool) "junk" true
    (match Synthetic.sharing_of_string "all" with Error _ -> true | Ok _ -> false)

let test_deterministic () =
  let run () =
    let rt = mk Policy.lcm_mcc in
    (Synthetic.run rt (params `Random)).Bench_result.checksum
  in
  Alcotest.(check (float 0.0)) "same checksum" (run ()) (run ())

let test_protocols_agree sharing =
  let results =
    List.map
      (fun (_, policy) ->
        let rt = mk policy in
        (Synthetic.run rt (params sharing)).Bench_result.checksum)
      combos
  in
  match results with
  | [ a; b; c ] ->
    Alcotest.(check (float 0.0)) "stache = scc" a b;
    Alcotest.(check (float 0.0)) "scc = mcc" b c
  | _ -> assert false

let test_protocols_agree_all_patterns () =
  List.iter test_protocols_agree [ `Private; `Neighbour; `Random; `Hot 2 ]

let test_protocols_agree_dynamic () =
  let run (_, policy) =
    let rt = mk ~schedule:(Schedule.Dynamic_random 3) policy in
    (Synthetic.run rt (params `Random)).Bench_result.checksum
  in
  match List.map run combos with
  | [ a; b; c ] ->
    Alcotest.(check (float 0.0)) "stache = scc" a b;
    Alcotest.(check (float 0.0)) "scc = mcc" b c
  | _ -> assert false

let test_sharing_gradient () =
  (* remote traffic: private reads stay local under static scheduling, so
     the shared patterns must fetch strictly more (neighbour vs random
     converge once reads saturate the block space, so only private is
     ordered against both) *)
  let fetches sharing =
    let rt = mk Policy.lcm_mcc in
    (Synthetic.run rt (params sharing)).Bench_result.remote_fetches
  in
  let priv = fetches `Private
  and neigh = fetches `Neighbour
  and rand = fetches `Random in
  Alcotest.(check bool)
    (Printf.sprintf "private %d < neighbour %d" priv neigh)
    true (priv < neigh);
  Alcotest.(check bool)
    (Printf.sprintf "private %d < random %d" priv rand)
    true (priv < rand)

let test_invariants_after_run () =
  List.iter
    (fun (name, policy) ->
      let m =
        Machine.create ~nnodes:8 ~words_per_block:8
          ~topology:Lcm_net.Topology.Crossbar ()
      in
      let p = Lcm_core.Proto.install ~policy m in
      let rt = Runtime.create p ~schedule:Schedule.Static in
      ignore (Synthetic.run rt (params `Random));
      match Lcm_core.Proto.check_invariants p with
      | Ok () -> ()
      | Error es ->
        Alcotest.failf "%s: invariants violated: %s" name (String.concat "; " es))
    combos

let test_bad_read_fraction () =
  let rt = mk Policy.lcm_mcc in
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Synthetic.run rt { Synthetic.default with Synthetic.read_fraction = 1.5 });
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "lcm_synthetic"
    [
      ( "synthetic",
        [
          ("parse", `Quick, test_parse);
          ("deterministic", `Quick, test_deterministic);
          ("protocols agree (all patterns)", `Slow, test_protocols_agree_all_patterns);
          ("protocols agree (dynamic)", `Slow, test_protocols_agree_dynamic);
          ("sharing gradient", `Slow, test_sharing_gradient);
          ("invariants after run", `Slow, test_invariants_after_run);
          ("bad read fraction", `Quick, test_bad_read_fraction);
        ] );
    ]
