(* Before/after equivalence pins for the host-performance work.

   Each fixed-seed workload below was run once on the pre-optimization
   simulator and its Fingerprint recorded verbatim.  The digests cover the
   final memory image word-for-word, every counter/gauge/sample, the full
   trace event sequence and the final clock — so any hot-path "optimization"
   that changes simulated behaviour in any observable way fails here
   bit-for-bit.

   To re-record after an INTENTIONAL semantic change (a protocol fix, a new
   counter), run:

     LCM_EQUIV_RECORD=1 dune exec test/test_equiv.exe 2>&1 | grep 'workload '

   and paste the printed table over [expected]. *)

open Lcm_harness

let trace_capacity = 1 lsl 20

let systems =
  [ Config.stache; Config.lcm_scc; Config.lcm_mcc; Config.lcm_mcc_update ]

let run_stencil sys =
  let rt =
    Config.make_runtime
      { Config.default_machine with Config.nnodes = 8 }
      sys ~schedule:Lcm_cstar.Schedule.Static
  in
  Lcm_tempest.Machine.enable_trace ~capacity:trace_capacity
    (Lcm_cstar.Runtime.machine rt);
  ignore
    (Lcm_apps.Stencil.run rt
       { Lcm_apps.Stencil.n = 24; iters = 3; work_per_cell = 4 });
  Fingerprint.of_runtime rt

let run_unstructured sys =
  let rt =
    Config.make_runtime
      { Config.default_machine with Config.nnodes = 8 }
      sys ~schedule:Lcm_cstar.Schedule.Static
  in
  Lcm_tempest.Machine.enable_trace ~capacity:trace_capacity
    (Lcm_cstar.Runtime.machine rt);
  ignore
    (Lcm_apps.Unstructured.run rt
       {
         Lcm_apps.Unstructured.nodes = 48;
         edges = 128;
         iters = 3;
         seed = 11;
         work_per_node = 6;
       });
  Fingerprint.of_runtime rt

let workloads =
  List.map (fun s -> (Printf.sprintf "stencil24/%s" s.Config.label, fun () -> run_stencil s)) systems
  @ List.map
      (fun s -> (Printf.sprintf "unstructured48/%s" s.Config.label, fun () -> run_unstructured s))
      systems

(* Re-recorded after the loopback bugfix (src = dst messages now cost
   msg_fixed only and skip channel occupancy): cycle/counter/trace digests
   moved for the workloads that self-send; every [mem] digest is
   unchanged — the fix is timing-only. *)
let expected =
  [
    ("workload stencil24/Stache+copy", "cycles=26188 mem=274d3d7a1bd7c09 counters=879e8156f83f27c9 trace=9e90a8e1f7c1e321/1752");
    ("workload stencil24/LCM-scc", "cycles=104640 mem=3a5dbccc5e12b3c5 counters=5b311973d41d11c7 trace=81000cf0ee326505/11904");
    ("workload stencil24/LCM-mcc", "cycles=68730 mem=3a5dbccc5e12b3c5 counters=480383b2591287bf trace=ac8641ee1c9d2677/5124");
    ("workload stencil24/LCM-mcc-update", "cycles=62034 mem=3a5dbccc5e12b3c5 counters=4bece52298a2c81d trace=daaee9872eb4cdfb/4536");
    ("workload unstructured48/Stache+copy", "cycles=27049 mem=148971b3a90edd71 counters=4c2e3e52f447ac67 trace=9803138ffa5aeb3f/2187");
    ("workload unstructured48/LCM-scc", "cycles=31562 mem=708485218d1d7b20 counters=c276579d0212dda6 trace=8b923102f9fb0a35/3559");
    ("workload unstructured48/LCM-mcc", "cycles=23013 mem=708485218d1d7b20 counters=457de1507267e27a trace=f5972616b544234/2809");
    ("workload unstructured48/LCM-mcc-update", "cycles=16209 mem=708485218d1d7b20 counters=9a517cc7bac4722a trace=c00282dd205d1a4f/2235");
  ]

let recording = Sys.getenv_opt "LCM_EQUIV_RECORD" <> None

let test_pinned () =
  List.iter
    (fun (name, run) ->
      let fp = Fingerprint.to_string (run ()) in
      if recording then Printf.printf "    (\"workload %s\", %S);\n%!" name fp
      else
        match List.assoc_opt ("workload " ^ name) expected with
        | Some want -> Alcotest.(check string) name want fp
        | None -> Alcotest.failf "no recorded fingerprint for %s" name)
    workloads

(* Same build, run twice: determinism of the digest itself. *)
let test_self_stable () =
  let a = run_stencil Config.lcm_mcc and b = run_stencil Config.lcm_mcc in
  Alcotest.(check bool) "identical reruns" true (Fingerprint.equal a b);
  Alcotest.(check string)
    "identical rendering"
    (Fingerprint.to_string a)
    (Fingerprint.to_string b)

let () =
  Alcotest.run "equiv"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "pinned workloads" `Slow test_pinned;
          Alcotest.test_case "self stable" `Quick test_self_stable;
        ] );
    ]
