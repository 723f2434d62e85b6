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

(* The snooping-bus family, pinned separately: its traffic never touches
   the point-to-point network, only bus grants. *)
let bus_systems = [ Config.msi; Config.mesi; Config.moesi ]

(* A fixed 5% chaos plan (drops, duplicates, jitter, link flaps): pins
   the reliable transport — envelopes, acks, dedup, retransmission
   timers — under the protocol traffic it carries. *)
let chaos =
  match Lcm_net.Faults.of_profile "chaos" ~rate:0.05 ~seed:7 with
  | Ok plan -> plan
  | Error e -> failwith e

let runtime ?faults ?(traced = true) sys =
  let rt =
    Config.make_runtime
      { Config.default_machine with Config.nnodes = 8; faults }
      sys ~schedule:Lcm_cstar.Schedule.Static
  in
  if traced then
    Lcm_tempest.Machine.enable_trace ~capacity:trace_capacity
      (Lcm_cstar.Runtime.machine rt);
  rt

let run_stencil ?faults ?traced sys =
  let rt = runtime ?faults ?traced sys in
  ignore
    (Lcm_apps.Stencil.run rt
       { Lcm_apps.Stencil.n = 24; iters = 3; work_per_cell = 4 });
  Fingerprint.of_runtime rt

let run_unstructured ?faults sys =
  let rt = runtime ?faults sys in
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

let cells systems =
  List.map (fun s -> (Printf.sprintf "stencil24/%s" s.Config.label, fun () -> run_stencil s)) systems
  @ List.map
      (fun s -> (Printf.sprintf "unstructured48/%s" s.Config.label, fun () -> run_unstructured s))
      systems

let workloads =
  cells systems @ cells bus_systems
  @ [
      ("stencil24/LCM-mcc/chaos5", fun () -> run_stencil ~faults:chaos Config.lcm_mcc);
      ( "stencil24/LCM-mcc/chaos5/untraced",
        fun () -> run_stencil ~faults:chaos ~traced:false Config.lcm_mcc );
      ("unstructured48/LCM-mcc/chaos5", fun () -> run_unstructured ~faults:chaos Config.lcm_mcc);
    ]

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
    (* Bus family and the fault-plan cells, recorded before the
       closure/handler send paths were merged into one. *)
    ("workload stencil24/MSI", "cycles=51839 mem=274d3d7a1bd7c09 counters=97e1cabec012d70f trace=6904c842b7a64fe9/798");
    ("workload stencil24/MESI", "cycles=48731 mem=274d3d7a1bd7c09 counters=28b2b5b480e72f8b trace=39097e1885f182b5/768");
    ("workload stencil24/MOESI", "cycles=48731 mem=274d3d7a1bd7c09 counters=28b2b5b480e72f8b trace=39097e1885f182b5/768");
    ("workload unstructured48/MSI", "cycles=34255 mem=148971b3a90edd71 counters=62d32424affec8ba trace=c0d5b59ab2c02217/506");
    ("workload unstructured48/MESI", "cycles=34255 mem=148971b3a90edd71 counters=1e8bb53943b86cdb trace=6c7b770d89ffc0a9/506");
    ("workload unstructured48/MOESI", "cycles=34255 mem=148971b3a90edd71 counters=2b24da09bfce6435 trace=6c7b770d89ffc0a9/506");
    ("workload stencil24/LCM-mcc/chaos5", "cycles=77781 mem=3a5dbccc5e12b3c5 counters=406323cd2b7b6d69 trace=2db8999605b5f147/6434");
    ("workload stencil24/LCM-mcc/chaos5/untraced", "cycles=77781 mem=3a5dbccc5e12b3c5 counters=406323cd2b7b6d69 trace=cbf29ce484222325/0");
    ("workload unstructured48/LCM-mcc/chaos5", "cycles=42432 mem=708485218d1d7b20 counters=fdcbf8ee70ca42c6 trace=c2517730c280f621/4752");
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
