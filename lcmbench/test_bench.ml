(* Tests of the statistics helpers and the verdict rule, and a check that
   BENCHMARK.json (path given as the only argument) lists exactly the
   metric catalogue of metrics.ml. *)

module T = Lcm_harness.Traceview

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let near a b = Float.abs (a -. b) < 1e-9

let () =
  (* Python: statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25];
     statistics.quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0];
     statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25]. *)
  let q1, q3 = Summary.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles 1..10" (near q1 2.75 && near q3 8.25);
  let q1, q3 = Summary.quartiles [ 3.; 1.; 2. ] in
  check "quartiles of 3" (near q1 1. && near q3 3.);
  let q1, q3 = Summary.quartiles [ 1.; 2. ] in
  check "quartiles of 2" (near q1 0.75 && near q3 2.25);
  check "quartiles of 1" (Summary.quartiles [ 4. ] = (4., 4.));
  check "median odd" (near (Summary.median [ 5.; 1.; 3. ]) 3.);
  check "median even" (near (Summary.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "p0" (near (Summary.percentile 0. [ 2.; 9.; 4. ]) 2.);
  check "p100" (near (Summary.percentile 100. [ 2.; 9.; 4. ]) 9.);
  let one_to n = List.init n (fun i -> float_of_int (i + 1)) in
  check "p99 of 1..101" (near (Summary.percentile 99. (one_to 101)) 100.);
  check "p90 interpolates" (near (Summary.percentile 90. [ 0.; 10. ]) 9.);
  check "spread" (near (Summary.spread [ 9.; 10.; 11. ]) 0.2);
  check "empty raises"
    (match Summary.median [] with _ -> false | exception Invalid_argument _ -> true);
  let slope, r2 = Summary.ols [ 1.; 2.; 3. ] [ 2.; 4.; 6. ] in
  check "ols exact" (near slope 2. && near r2 1.);
  let _, r2 = Summary.ols [ 1.; 2.; 3.; 4. ] [ 3.; 1.; 4.; 2. ] in
  check "ols noisy r2 < 1" (r2 < 0.5)

(* The verdict rule on hand-made pairs. *)
let () =
  let open Summary in
  let parent = [ 10.; 10.2; 9.9; 10.1; 10.; 10.3; 9.8; 10.; 10.1; 9.9 ] in
  let faster = List.map (fun x -> x *. 0.8) parent in
  check "clear gain" (verdict Lower ~bound:0.1 ~parent ~change:faster = Better);
  check "gain on a higher-is-better metric"
    (verdict Higher ~bound:0.1 ~parent ~change:(List.map (fun x -> x *. 1.25) parent) = Better);
  check "same runs: no regression"
    (verdict Lower ~bound:0.1 ~parent ~change:parent = No_regression);
  check "20% slower is a regression"
    (verdict Lower ~bound:0.1 ~parent ~change:(List.map (fun x -> x *. 1.2) parent) = Regression);
  (* 8 wins of 10 is not a claimable gain even with a wide gap *)
  let mixed = List.mapi (fun i x -> if i < 8 then x *. 0.5 else x *. 1.05) parent in
  check "8/10 wins is not a gain" (verdict Lower ~bound:0.6 ~parent ~change:mixed <> Better);
  check "win fraction" (near (win_frac Lower ~parent ~change:mixed) 0.8);
  let take5 = List.filteri (fun i _ -> i < 5) in
  check "fewer than ten pairs is no gain"
    (verdict Lower ~bound:0.1 ~parent:(take5 parent) ~change:(take5 faster) <> Better);
  check "ties count for neither" (near (win_frac Lower ~parent ~change:parent) 0.);
  let noisy = [ 5.; 15.; 8.; 12.; 10.; 6.; 14.; 9.; 11.; 10. ] in
  check "wide parent spread is unresolved"
    (verdict Lower ~bound:0.1 ~parent:noisy ~change:(List.map (fun x -> x *. 1.02) noisy)
    = Unresolved)

(* BENCHMARK.json names every catalogue metric with its unit, direction
   and bound, and nothing else. *)
let () =
  let path = Sys.argv.(1) in
  let doc =
    match T.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok d -> d
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let section key (catalogue : Metrics.t list) =
    let entries = match T.member key doc with Some (T.Arr l) -> l | _ -> [] in
    let str k e = match T.member k e with Some (T.Str s) -> s | _ -> "" in
    check (key ^ " lists every metric once") (List.length entries = List.length catalogue);
    List.iter
      (fun (m : Metrics.t) ->
        match List.find_opt (fun e -> str "name" e = m.name) entries with
        | None -> check (key ^ " lists " ^ m.name) false
        | Some e ->
          check (m.name ^ " unit") (str "unit" e = m.unit_);
          check (m.name ^ " direction")
            (str "better" e = match m.better with Summary.Lower -> "lower" | Higher -> "higher");
          check (m.name ^ " bound")
            (match (T.member "bound" e, m.bound) with
            | Some (T.Num b), Some b' -> near b b'
            | None, None -> true
            | _ -> false))
      catalogue
  in
  section "end_to_end" Metrics.end_to_end;
  section "per_layer" Metrics.per_layer;
  let names = match T.member "workloads" doc with Some (T.Arr l) -> l | _ -> [] in
  check "workloads match"
    (List.map (fun e -> T.member "name" e) names
    = List.map (fun w -> Some (T.Str w.Workloads.name)) Workloads.all)

let () =
  if !failures > 0 then exit 1;
  print_endline "test_bench: ok"
