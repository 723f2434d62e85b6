module Fleet = Lcm_fleet.Fleet

let rows results =
  Array.to_list results
  |> List.filter_map (fun (r : _ Fleet.cell_result) ->
         match r.Fleet.outcome with Fleet.Done row -> Some row | _ -> None)

let failures results =
  Array.to_list results
  |> List.filter (fun (r : _ Fleet.cell_result) ->
         match r.Fleet.outcome with Fleet.Done _ -> false | _ -> true)

(* ------------------------------------------------------------------ *)
(* Machine-readable sweep summaries                                    *)
(* ------------------------------------------------------------------ *)

let outcome_tag (r : _ Fleet.cell_result) =
  match r.Fleet.outcome with
  | Fleet.Done _ -> "done"
  | Fleet.Failed _ -> "failed"
  | Fleet.Timed_out _ -> "timed-out"

let error_text (r : _ Fleet.cell_result) =
  match r.Fleet.outcome with
  | Fleet.Done _ -> None
  | outcome -> Some (Fleet.outcome_string outcome)

let count tag results =
  Array.to_list results
  |> List.filter (fun r -> outcome_tag r = tag)
  |> List.length

let summary_json ~suite ~scale ~jobs results =
  let open Report.Json in
  let cell (r : Experiments.row Fleet.cell_result) =
    let base =
      [
        ("index", Int r.Fleet.index);
        ("label", Str r.Fleet.label);
        ("outcome", Str (outcome_tag r));
        ("host_s", Float r.Fleet.host_s);
        ("events", Int r.Fleet.events);
      ]
    in
    let extra =
      match r.Fleet.outcome with
      | Fleet.Done row ->
        [
          ("cycles", Int row.Experiments.result.Lcm_apps.Bench_result.cycles);
          ( "checksum",
            Float row.Experiments.result.Lcm_apps.Bench_result.checksum );
        ]
      | _ -> [ ("error", Str (Option.value (error_text r) ~default:"")) ]
    in
    Obj (base @ extra)
  in
  let total_host_s =
    Array.fold_left (fun acc r -> acc +. r.Fleet.host_s) 0.0 results
  in
  to_string
    (Obj
       [
         ("schema", Str "lcm-sweep/1");
         ("suite", Str suite);
         ("scale", Str scale);
         ("jobs", Int jobs);
         ("cells", Arr (Array.to_list results |> List.map cell));
         ("done", Int (count "done" results));
         ("failed", Int (count "failed" results));
         ("timed_out", Int (count "timed-out" results));
         ("total_host_s", Float total_host_s);
       ])
  ^ "\n"

let summary_csv results =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Report.csv_line
       [ "index"; "label"; "outcome"; "host_s"; "events"; "cycles"; "faults";
         "remote_fetches"; "clean_copies"; "messages"; "checksum"; "error" ]);
  Array.iter
    (fun (r : Experiments.row Fleet.cell_result) ->
      let counters =
        match r.Fleet.outcome with
        | Fleet.Done { Experiments.result = b; _ } ->
          let open Lcm_apps.Bench_result in
          List.map string_of_int
            [ b.cycles; b.faults; b.remote_fetches; b.clean_copies; b.messages ]
          @ [ Printf.sprintf "%.9g" b.checksum ]
        | _ -> List.init 6 (fun _ -> "")
      in
      Buffer.add_string buf
        (Report.csv_line
           ([
              string_of_int r.Fleet.index;
              r.Fleet.label;
              outcome_tag r;
              Printf.sprintf "%.6f" r.Fleet.host_s;
              string_of_int r.Fleet.events;
            ]
           @ counters
           @ [ Option.value (error_text r) ~default:"" ])))
    results;
  Buffer.contents buf
