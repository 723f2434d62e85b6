(* The policy-matrix smoke: every policy in the registry — directory and
   snooping-bus families alike — gets (a) a bounded fingerprint
   determinism check (same fixed-seed workload twice must digest
   bit-identically), (b) a short differential stress sweep against the
   per-epoch spec, and (c) a protocol-invariant audit on the quiescent
   machine.  The suite iterates [Policy.policies], so a
   policy added to the registry is covered here with no test edits — and
   a policy that bypasses the registry simply does not exist as far as
   the CLI and this matrix are concerned.  Run directly via [make policy-matrix] or as part of
   [dune runtest]. *)

open Lcm_harness
module Policy = Lcm_core.Policy

let run_stencil sys =
  let rt =
    Config.make_runtime
      { Config.default_machine with Config.nnodes = 4 }
      sys ~schedule:Lcm_cstar.Schedule.Static
  in
  Lcm_tempest.Machine.enable_trace ~capacity:(1 lsl 16)
    (Lcm_cstar.Runtime.machine rt);
  let sum =
    (Lcm_apps.Stencil.run rt
       { Lcm_apps.Stencil.n = 16; iters = 2; work_per_cell = 3 })
      .Lcm_apps.Bench_result.checksum
  in
  let fp = Fingerprint.of_runtime rt in
  (match Lcm_core.Proto.check_invariants (Lcm_cstar.Runtime.proto rt) with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "%s: invariant violation: %s" sys.Config.label
        (String.concat "; " e));
  (sum, fp)

let test_deterministic sys () =
  let sum1, fp1 = run_stencil sys in
  let sum2, fp2 = run_stencil sys in
  Alcotest.(check (float 0.0))
    (sys.Config.label ^ " checksum repeats") sum1 sum2;
  if not (Fingerprint.equal fp1 fp2) then
    Alcotest.failf "%s: fingerprint drifted between identical runs:\n  %s\n  %s"
      sys.Config.label
      (Fingerprint.to_string fp1)
      (Fingerprint.to_string fp2)

let test_checksums_agree () =
  (* All seven policies are coherent memory systems: the same program must
     compute the same answer under every one of them. *)
  let sums =
    List.map (fun sys -> (sys.Config.label, fst (run_stencil sys)))
      Policy.policies
  in
  match sums with
  | [] -> Alcotest.fail "empty registry"
  | (_, golden) :: _ ->
      List.iter
        (fun (label, sum) ->
          Alcotest.(check (float 0.0)) (label ^ " agrees") golden sum)
        sums

let test_stress policy () =
  match Stress.run ~policy ~cases:8 ~seed:5 () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" e

let () =
  Alcotest.run "lcm_policy_matrix"
    [
      ( "fingerprint",
        List.map
          (fun sys ->
            Alcotest.test_case
              (sys.Config.label ^ " deterministic")
              `Quick (test_deterministic sys))
          Policy.policies
        @ [ Alcotest.test_case "checksums agree" `Quick test_checksums_agree ]
      );
      ( "stress",
        List.map
          (fun (p : Policy.t) ->
            Alcotest.test_case (p.Policy.name ^ " 8 cases") `Quick
              (test_stress p))
          Policy.policies );
    ]
