(* lcm_sim — run any benchmark under any memory system.

     lcm_sim stencil --system mcc --schedule random:5 --size 256 --iters 20
     lcm_sim adaptive --system stache --nodes 16 --stats
     lcm_sim reduce --variant serialized
     lcm_sim nbody --refresh 4

   Prints the Bench_result line; --stats dumps every counter. *)

open Cmdliner
open Lcm_harness
open Lcm_apps

(* Integer option values with a lower bound: anything below [min] is a
   clean command-line error (exit 124), never an exception deeper in. *)
let int_at_least min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "must be at least %d" min))
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A fraction in [0, 1] (NaN is not one), with the same clean error. *)
let fraction =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 && f <= 1.0 -> Ok f
    | Some _ -> Error (`Msg "must be in [0, 1]")
    | None -> Error (`Msg (Printf.sprintf "invalid number %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* A converter over a library parser: its error message is the option's. *)
let conv_of of_string to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (of_string s)),
      fun ppf v -> Format.pp_print_string ppf (to_string v) )

(* A path to write, in a directory that exists, and of the right kind if
   it exists already: checked before anything runs, so a bad path is exit
   124, not a crash after the work is done.  [output_file] rejects an
   existing directory, [output_dir] an existing non-directory.  Cmdliner
   never passes a default through a converter, so a command checks its
   default path with [output_path] itself. *)
let output_path ~dir s =
  let parent = Filename.dirname s in
  if not (Sys.file_exists parent && Sys.is_directory parent) then
    Error (Printf.sprintf "no such directory %S" parent)
  else if Sys.file_exists s && Sys.is_directory s <> dir then
    Error
      (Printf.sprintf "%S is %s" s
         (if dir then "not a directory" else "a directory"))
  else Ok s

let output_file = conv_of (output_path ~dir:false) Fun.id
let output_dir = conv_of (output_path ~dir:true) Fun.id

(* A negative verdict exits 1: cmdliner keeps 124 for a command line it
   rejected before anything ran, so the two never mix.  Each command that
   can reach one lists the code in its --help EXIT STATUS. *)
let verdict_exits doc = Cmd.Exit.info 1 ~doc :: Cmd.Exit.defaults

let negative_verdict msg =
  Printf.eprintf "lcm_sim: %s\n%!" msg;
  exit 1

(* The one policy converter: any spelling in Policy.spellings, to the
   registry entry.  --system/--protocol/-p and every --policy use it. *)
let policy_conv =
  conv_of Lcm_core.Policy.of_string (fun p -> p.Config.label)

let policy_spellings = String.concat ", " Lcm_core.Policy.spellings

let policy_arg =
  Arg.(value & opt (some policy_conv) None
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:(Printf.sprintf "Restrict to one policy (%s); default: every \
                                 registered policy." policy_spellings))

let schedule_conv =
  conv_of Lcm_cstar.Schedule.of_string Lcm_cstar.Schedule.to_string

let topology_conv = conv_of Lcm_net.Topology.of_string Lcm_net.Topology.to_string

let system_arg =
  Arg.(value & opt policy_conv Config.lcm_mcc
       & info [ "system"; "protocol"; "p" ] ~docv:"SYSTEM"
           ~doc:(Printf.sprintf "Memory system: %s." policy_spellings))

let schedule_arg =
  Arg.(value & opt schedule_conv Lcm_cstar.Schedule.Static
       & info [ "schedule"; "s" ] ~docv:"SCHED"
           ~doc:"Invocation schedule: static, rotate or random:SEED.")

let nodes_arg =
  let max = Lcm_net.Network.max_nodes in
  let nodes =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 && n <= max -> Ok n
      | Some _ | None -> Error (`Msg (Printf.sprintf "must be an integer in [1, %d]" max))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt nodes 32
       & info [ "nodes"; "n" ] ~docv:"N"
           ~doc:(Printf.sprintf "Processor count, at most %d." max))

let topology_arg =
  Arg.(value & opt topology_conv (Lcm_net.Topology.Fat_tree { arity = 4 })
       & info [ "topology" ] ~docv:"TOPO" ~doc:"crossbar, mesh:COLS or fattree:ARITY.")

let size_arg ?(min = 1) default =
  Arg.(value & opt (int_at_least min) default
       & info [ "size" ] ~docv:"SIZE" ~doc:"Problem size.")

let iters_arg default =
  Arg.(value & opt (int_at_least 0) default
       & info [ "iters" ] ~docv:"ITERS" ~doc:"Iterations.")

let capacity_arg =
  Arg.(value & opt (some (int_at_least 1)) None
       & info [ "capacity" ] ~docv:"BLOCKS" ~doc:"Finite per-node cache, in blocks.")

let barrier_conv = conv_of Lcm_core.Barrier.of_string Lcm_core.Barrier.to_string

let barrier_arg =
  Arg.(value & opt barrier_conv Lcm_core.Barrier.Constant
       & info [ "barrier" ] ~docv:"STYLE"
           ~doc:"Reconciliation barrier: constant, flat or tree:ARITY.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Dump all simulation counters.")

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Record a protocol event trace and print the tail.")

let trace_out_arg =
  Arg.(value & opt (some output_file) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the recorded trace as Chrome trace_event JSON to \
                 $(docv) — open in chrome://tracing or Perfetto.  Implies \
                 $(b,--trace).")

let trace_cap_arg =
  Arg.(value & opt (int_at_least 1) 262144
       & info [ "trace-cap" ] ~docv:"N"
           ~doc:"Trace ring capacity; once full, the oldest events are \
                 evicted.")

let phases_arg =
  Arg.(value & flag
       & info [ "phases" ] ~doc:"Print a per-parallel-phase metrics table.")

let paper_arg =
  Arg.(value & flag & info [ "paper-scale" ] ~doc:"Use the paper's problem sizes.")

(* --fault-rate/--fault-seed/--fault-profile combine into one optional
   fault plan; rate 0 (the default) keeps the interconnect reliable. *)
let fault_rate_arg =
  Arg.(value & opt fraction 0.0
       & info [ "fault-rate" ] ~docv:"P"
           ~doc:"Inject deterministic network faults at intensity $(docv) \
                 in [0,1] (0 disables).  Shape comes from \
                 $(b,--fault-profile); replay with the same \
                 $(b,--fault-seed).  Bus systems (msi, mesi, moesi) do not \
                 use the interconnect, so they ignore the plan; a single \
                 run on one rejects it.")

let fault_seed_arg =
  Arg.(value & opt int 7
       & info [ "fault-seed" ] ~docv:"S"
           ~doc:"Seed for the fault decision stream — a (profile, rate, \
                 seed) triple replays bit-identically.")

let fault_profile_arg =
  Arg.(value & opt string "drop"
       & info [ "fault-profile" ] ~docv:"NAME"
           ~doc:"Fault plan shape: drop, dup, jitter, flap, chaos, or the \
                 diagnostic drop-noretx (retransmission off — expect a \
                 typed stall instead of silent data loss).")

let faults_term =
  let build rate seed profile =
    (* the profile is checked at every rate, rate 0 included *)
    match Lcm_net.Faults.of_profile profile ~rate ~seed with
    | Error e -> `Error (false, e)
    | Ok _ when rate = 0.0 -> `Ok None
    | Ok plan -> `Ok (Some plan)
  in
  Term.(ret (const build $ fault_rate_arg $ fault_seed_arg $ fault_profile_arg))

(* A single run ends with the audit every experiment cell runs; a
   violation is a negative verdict, as is a fault plan's typed failure. *)
let audit_exits =
  verdict_exits
    "when a fault plan stalls the run or leaves a node unreachable, or the \
     protocol audit after the run finds a violation."

(* Every single-run command: [term] yields the label its audit reports,
   the memory system and the run; the builder owns the machine, fault and
   observation flags, so all nine commands take the same ones. *)
let bench_cmd name ~doc term =
  let module Runtime = Lcm_cstar.Runtime in
  (* A plan a bus system would ignore is a command-line error, not a
     fault-free run that reads as a faulty one. *)
  let run_faults =
    let check ((label, (system : Config.system), _) as run) faults =
      match (system.Config.family, faults) with
      | Lcm_core.Policy.Snoop _, Some _ ->
        `Error
          ( false,
            Printf.sprintf
              "--fault-rate: %s is a bus system; a fault plan acts on the \
               interconnect, which it does not use"
              label )
      | (Lcm_core.Policy.Snoop _ | Lcm_core.Policy.Directory _), _ ->
        `Ok (run, faults)
    in
    Term.(ret (const check $ term $ faults_term))
  in
  let main ((label, system, run), faults) schedule nnodes topology
      capacity_blocks barrier stats trace trace_out trace_cap phases =
    let machine =
      { Config.default_machine with Config.nnodes; topology; capacity_blocks; faults }
    in
    let rt = Config.make_runtime ~barrier machine system ~schedule in
    let mach = Runtime.machine rt in
    let traced = trace || trace_out <> None in
    if traced then Lcm_tempest.Machine.enable_trace ~capacity:trace_cap mach;
    if phases then Runtime.enable_phase_log rt;
    let result =
      try run rt
      with
      | ( Lcm_tempest.Machine.Stalled _
        | Lcm_net.Network.Net_unreachable _ ) as e ->
        negative_verdict
          (Printf.sprintf "%s/%s: %s" name label (Printexc.to_string e))
    in
    Format.printf "%a@." Bench_result.pp result;
    if stats then Format.printf "%a" Lcm_util.Stats.pp (Runtime.stats rt);
    (if traced then
       let events = Lcm_tempest.Machine.trace_events mach in
       let recorded = List.length events in
       match trace_out with
       | Some path ->
         Traceview.export_file ~path events;
         Printf.printf "trace: %d events -> %s\n" recorded path
       | None ->
         Printf.printf "trace: %d events retained; tail:\n" recorded;
         List.filteri (fun i _ -> i >= recorded - 20) events
         |> Lcm_sim.Trace.dump
         |> List.iter (Printf.printf "  %s\n"));
    if phases then print_string (Report.phases (Runtime.phase_log rt));
    match Experiments.audit ~experiment:name ~system:label rt with
    | Ok () -> ()
    | Error msg -> negative_verdict msg
  in
  Cmd.v
    (Cmd.info name ~exits:audit_exits ~doc)
    Term.(
      const main $ run_faults $ schedule_arg $ nodes_arg $ topology_arg
      $ capacity_arg $ barrier_arg $ stats_arg $ trace_arg $ trace_out_arg
      $ trace_cap_arg $ phases_arg)

(* The term of a command that takes --system, audited under its label. *)
let on_system run =
  Term.(
    const (fun (system : Config.system) run -> (system.Config.label, system, run))
    $ system_arg $ run)

let stencil_cmd =
  bench_cmd "stencil" ~doc:"Run the stencil benchmark."
    (on_system
       Term.(
         const (fun size iters paper rt ->
             Stencil.run rt
               (if paper then Stencil.paper else Stencil.params ~n:size ~iters))
         $ size_arg 128 $ iters_arg 10 $ paper_arg))

let threshold_cmd =
  bench_cmd "threshold" ~doc:"Run the threshold benchmark."
    (on_system
       Term.(
         const (fun size iters paper rt ->
             Threshold.run rt
               (if paper then Threshold.paper
                else Threshold.params ~n:size ~iters))
         $ size_arg 128 $ iters_arg 10 $ paper_arg))

let adaptive_cmd =
  bench_cmd "adaptive" ~doc:"Run the adaptive benchmark."
    (on_system
       Term.(
         const (fun size iters paper rt ->
             Adaptive.run rt
               (if paper then Adaptive.paper
                else
                  Adaptive.params ~n:size ~iters ~max_depth:3
                    ~arena_per_node:4096))
         $ size_arg 32 $ iters_arg 16 $ paper_arg))

let sor_cmd =
  bench_cmd "sor" ~doc:"Run the sor benchmark."
    (on_system
       Term.(
         const (fun size iters rt -> Sor.run rt (Sor.params ~n:size ~iters))
         $ size_arg 50 $ iters_arg 8))

let unstructured_cmd =
  (* 4·size edges fit on size nodes, without self-loops or repeated
     edges, from 9 nodes up *)
  bench_cmd "unstructured" ~doc:"Run the unstructured benchmark."
    (on_system
       Term.(
         const (fun size iters paper rt ->
             Unstructured.run rt
               (if paper then Unstructured.paper
                else Unstructured.params ~nodes:size ~iters))
         $ size_arg ~min:9 256 $ iters_arg 64 $ paper_arg))

let reduce_cmd =
  let variant_conv =
    let parse = function
      | "rsm" | "rsm-reconcile" -> Ok `Rsm_reconcile
      | "manual" | "manual-partials" -> Ok `Manual_partials
      | "serialized" -> Ok `Serialized
      | s -> Error (`Msg (Printf.sprintf "unknown variant %S" s))
    in
    Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (Reduce_demo.variant_name v))
  in
  let variant_arg =
    Arg.(value & opt variant_conv `Rsm_reconcile
         & info [ "variant" ] ~docv:"V" ~doc:"rsm, manual or serialized.")
  in
  bench_cmd "reduce" ~doc:"Global-reduction demo (paper section 7.1)."
    Term.(
      const (fun variant size ->
          ( Reduce_demo.variant_name variant,
            (match variant with `Rsm_reconcile -> Config.lcm_mcc | _ -> Config.stache),
            fun rt ->
              Reduce_demo.run rt variant (Reduce_demo.params ~n:size) ))
      $ variant_arg $ size_arg 8192)

let false_sharing_cmd =
  bench_cmd "false-sharing" ~doc:"False-sharing demo (paper section 7.4)."
    (on_system
       Term.(
         const (fun size iters rt ->
             False_sharing.run rt { False_sharing.blocks = size; rounds = iters })
         $ size_arg 64 $ iters_arg 20))

let nbody_cmd =
  let refresh_arg =
    Arg.(value & opt (some (int_at_least 1)) None
         & info [ "refresh" ] ~docv:"K"
             ~doc:"Refresh stale copies every K iterations (omit for fresh).")
  in
  bench_cmd "nbody" ~doc:"Stale-data demo (paper section 7.5)."
    Term.(
      const (fun refresh size iters ->
          let mode = match refresh with None -> `Fresh | Some k -> `Stale k in
          ( Config.lcm_mcc.Config.label,
            Config.lcm_mcc,
            fun rt ->
              Nbody_stale.run rt mode (Nbody_stale.params ~bodies:size ~iters) ))
      $ refresh_arg $ size_arg 512 $ iters_arg 16)

let synthetic_cmd =
  let sharing_conv =
    conv_of Lcm_apps.Synthetic.sharing_of_string
      Lcm_apps.Synthetic.sharing_to_string
  in
  let sharing_arg =
    Arg.(value & opt sharing_conv `Neighbour
         & info [ "sharing" ] ~docv:"PATTERN"
             ~doc:"private, neighbour, random or hot:BLOCKS.")
  in
  let reads_arg =
    Arg.(value & opt fraction 0.75
         & info [ "reads" ] ~docv:"FRACTION" ~doc:"Fraction of ops that read.")
  in
  bench_cmd "synthetic" ~doc:"Configurable synthetic sharing workload."
    (on_system
       Term.(
         const (fun sharing reads size iters rt ->
             Synthetic.run rt
               {
                 Synthetic.default with
                 Synthetic.blocks_per_node = size;
                 phases = iters;
                 sharing;
                 read_fraction = reads;
               })
         $ sharing_arg $ reads_arg $ size_arg 8 $ iters_arg 4))

let info_cmd =
  let run () =
    let m = Config.default_machine in
    let c = m.Config.costs in
    Printf.printf "default machine: %d nodes, %d-word blocks, topology %s\n"
      m.Config.nnodes m.Config.words_per_block
      (Lcm_net.Topology.to_string m.Config.topology);
    Printf.printf "systems:\n";
    List.iter2
      (fun spellings (p : Lcm_core.Policy.t) ->
        Printf.printf "  %-28s %s\n" spellings p.Lcm_core.Policy.summary)
      Lcm_core.Policy.spellings Lcm_core.Policy.policies;
    Printf.printf "\n";
    Printf.printf "cost model (cycles):\n";
    List.iter
      (fun (k, v) -> Printf.printf "  %-22s %d\n" k v)
      [
        ("cpu_op", c.Lcm_sim.Costs.cpu_op);
        ("compute_unit", c.Lcm_sim.Costs.compute_unit);
        ("fault_trap", c.Lcm_sim.Costs.fault_trap);
        ("handler_occupancy", c.Lcm_sim.Costs.handler_occupancy);
        ("msg_fixed", c.Lcm_sim.Costs.msg_fixed);
        ("msg_per_hop", c.Lcm_sim.Costs.msg_per_hop);
        ("msg_per_word", c.Lcm_sim.Costs.msg_per_word);
        ("block_install", c.Lcm_sim.Costs.block_install);
        ("hw_miss", c.Lcm_sim.Costs.hw_miss);
        ("local_copy", c.Lcm_sim.Costs.local_copy);
        ("barrier_base", c.Lcm_sim.Costs.barrier_base);
        ("barrier_per_node", c.Lcm_sim.Costs.barrier_per_node);
        ("sched_dequeue", c.Lcm_sim.Costs.sched_dequeue);
        ("invocation_overhead", c.Lcm_sim.Costs.invocation_overhead);
      ]
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print the default machine and cost model.")
    Term.(const run $ const ())

(* --jobs N: worker domains for sweeps.  0 = auto (one per recommended
   domain); clamped to >= 1.  Default 1 keeps runs deterministic-sequential. *)
let jobs_arg =
  Arg.(value & opt (int_at_least 0) 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the sweep: 1 (default) runs \
                 deterministic-sequential on the calling domain, 0 picks \
                 one worker per recommended host domain, N>1 uses N \
                 domains.  Results are bit-identical at any job count.")

let experiments_cmd =
  let module Fleet = Lcm_fleet.Fleet in
  let scale_conv =
    conv_of Experiments.scale_of_string Experiments.scale_to_string
  in
  let scale_arg =
    Arg.(value & opt scale_conv Experiments.Quick
         & info [ "scale" ] ~docv:"SCALE" ~doc:"tiny, quick or paper.")
  in
  let suite_arg =
    let suite_conv =
      let parse s =
        let s = String.lowercase_ascii (String.trim s) in
        if s = "all" || s = "ablations" || s = "figures"
           || List.mem_assoc s Experiments.families
        then Ok s
        else
          Error
            (`Msg
              (Printf.sprintf "unknown suite %S; pick all, figures, ablations or one of: %s"
                 s
                 (String.concat ", " (List.map fst Experiments.families))))
      in
      Arg.conv (parse, Format.pp_print_string)
    in
    Arg.(value & opt suite_conv "figures"
         & info [ "suite" ] ~docv:"SUITE"
             ~doc:"Which cell families to sweep: $(b,figures) (figure2 + \
                   figure3), $(b,ablations), $(b,all), or a single family \
                   name (e.g. figure2, barrier, topology).")
  in
  let positive_float =
    let parse s =
      match float_of_string_opt s with
      | Some f when f > 0.0 -> Ok f
      | Some _ -> Error (`Msg "must be positive")
      | None -> Error (`Msg (Printf.sprintf "invalid number %S" s))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let max_events_arg =
    Arg.(value & opt (some (int_at_least 1)) None
         & info [ "max-events" ] ~docv:"N"
             ~doc:"Per-cell simulated-event budget; a cell exceeding it is \
                   reported $(b,timed-out) at a deterministic simulated \
                   point, and the sweep continues and then exits 1.")
  in
  let timeout_arg =
    Arg.(value & opt (some positive_float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-cell host wall-clock guard; a cell over it is \
                   reported $(b,timed-out), and the sweep continues and \
                   then exits 1.")
  in
  let summary_json_arg =
    Arg.(value & opt (some output_file) None
         & info [ "summary-json" ] ~docv:"FILE"
             ~doc:"Write the machine-readable sweep summary (lcm-sweep/1 \
                   JSON) to $(docv).")
  in
  let summary_csv_arg =
    Arg.(value & opt (some output_file) None
         & info [ "summary-csv" ] ~docv:"FILE"
             ~doc:"Write the sweep summary as CSV to $(docv).")
  in
  let progress_arg =
    Arg.(value & vflag None
         [ (Some true, info [ "progress" ] ~doc:"Force live progress on stderr.");
           (Some false, info [ "no-progress" ] ~doc:"Disable live progress.") ])
  in
  let run suite scale jobs nodes topology faults max_events timeout
      summary_json summary_csv progress =
    let machine =
      { Config.default_machine with Config.nnodes = nodes; topology; faults }
    in
    let jobs = Fleet.resolve_jobs jobs in
    let figure_families, ablation_families =
      List.partition
        (fun (n, _) -> n = "figure2" || n = "figure3")
        Experiments.families
    in
    let figures = suite = "figures" || suite = "all" in
    let families =
      match suite with
      | "all" -> figure_families @ ablation_families
      | "figures" -> figure_families
      | "ablations" -> ablation_families
      | name -> List.filter (fun (n, _) -> n = name) Experiments.families
    in
    let cells_of families =
      List.concat_map (fun (_, cells_of) -> cells_of ~scale machine) families
    in
    let cells = cells_of families in
    let budget = Fleet.Budget.make ?max_events ?wall_s:timeout () in
    let show_progress =
      match progress with
      | Some b -> b
      | None -> (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)
    in
    let progress =
      if show_progress then
        Some (Fleet.Progress.create ~total:(List.length cells))
      else None
    in
    let t0 = Unix.gettimeofday () in
    let results =
      Fleet.Pool.run ~jobs ~budget ?progress (Array.of_list cells)
    in
    let wall = Unix.gettimeofday () -. t0 in
    Option.iter Fleet.Progress.finish progress;
    let rows = Sweep.rows results in
    print_string (Report.generic ~title:(Printf.sprintf "sweep %s (%s scale)" suite (Experiments.scale_to_string scale)) rows);
    let claims =
      if not figures then []
      else begin
        (* the figure cells come first *)
        let figure_rows =
          Sweep.rows
            (Array.sub results 0 (List.length (cells_of figure_families)))
        in
        let of_experiments es =
          List.filter
            (fun (r : Experiments.row) -> List.mem r.Experiments.experiment es)
            figure_rows
        in
        print_string (Report.memory_usage figure_rows);
        print_string (Report.samples (of_experiments [ "stencil-stat" ]));
        print_string
          (Report.message_breakdown
             (of_experiments [ "stencil-stat"; "threshold" ]));
        Experiments.claims rows
      end
    in
    print_string (Report.agreement rows);
    let paper_machine = machine = Config.default_machine in
    if figures then begin
      print_string (Report.claims claims);
      if not paper_machine then
        print_endline
          "(the claims describe the paper's 32-node fat-tree machine; on \
           this one they do not decide the exit status)"
    end;
    let scale = Experiments.scale_to_string scale in
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Sweep.summary_json ~suite ~scale ~jobs results);
        close_out oc;
        Printf.printf "(wrote %s)\n" path)
      summary_json;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Sweep.summary_csv results);
        close_out oc;
        Printf.printf "(wrote %s)\n" path)
      summary_csv;
    let failures = Sweep.failures results in
    let failed, timed_out =
      List.partition
        (fun (r : _ Fleet.cell_result) ->
          match r.Fleet.outcome with Fleet.Failed _ -> true | _ -> false)
        failures
    in
    Printf.printf
      "sweep: %d cells (%d ok, %d failed, %d timed-out) in %.2fs host time, jobs=%d\n"
      (Array.length results) (List.length rows) (List.length failed)
      (List.length timed_out) wall jobs;
    List.iter
      (fun (r : _ Fleet.cell_result) ->
        Printf.eprintf "  cell %d %s: %s\n" r.Fleet.index r.Fleet.label
          (Fleet.outcome_string r.Fleet.outcome))
      failures;
    let named what = function
      | [] -> []
      | xs -> [ what ^ ": " ^ String.concat ", " xs ]
    in
    let labels = List.map (fun (r : _ Fleet.cell_result) -> r.Fleet.label) in
    match
      named "failed cells" (labels failed)
      @ named "timed-out cells" (labels timed_out)
      @ named "systems disagree on"
          (List.filter_map
             (fun (e, ok) -> if ok then None else Some e)
             (Experiments.verify_agreement rows))
      @ named "paper claims differ"
          (List.filter_map
             (fun (c : Experiments.claim) ->
               if c.Experiments.holds || not paper_machine then None
               else Some c.Experiments.id)
             claims)
    with
    | [] -> ()
    | verdicts -> negative_verdict (String.concat "; " verdicts)
  in
  Cmd.v
    (Cmd.info "experiments"
       ~exits:
         (verdict_exits
            "on a negative verdict: a failed or timed-out cell, systems that \
             disagree on an experiment, or, for $(b,--suite) figures or all \
             on the paper's machine (32 nodes, arity-4 fat tree, no faults), \
             a paper claim that reads DIFFERS.")
       ~doc:"Sweep the paper's experiment grid (figures and/or ablations) \
             across worker domains and report it: one table of cycles, \
             slowdown and counters, the differential check, and for \
             $(b,--suite) figures or all the memory-usage, phase-sample and \
             message tables and the Section 6.3 claims.  Cells are \
             independent simulations; results are ordered by cell index, so \
             output is bit-identical at any $(b,--jobs) count.  A crashing \
             cell is contained as a $(b,failed) outcome; \
             $(b,--max-events)/$(b,--timeout) turn runaway cells into \
             $(b,timed-out) outcomes.")
    Term.(
      const run $ suite_arg $ scale_arg $ jobs_arg $ nodes_arg
      $ topology_arg $ faults_term $ max_events_arg $ timeout_arg
      $ summary_json_arg $ summary_csv_arg $ progress_arg)

let stress_cmd =
  let cases_arg =
    Arg.(value & opt (int_at_least 1) 100
         & info [ "cases" ] ~docv:"N" ~doc:"Cases per policy.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S" ~doc:"Generator stream seed.")
  in
  let run cases seed policy faults jobs =
    (match faults with
    | Some plan ->
      Printf.printf "fault plan: %s\n%!" (Lcm_net.Faults.to_string plan)
    | None -> ());
    let policies =
      match policy with Some p -> [ p ] | None -> Lcm_core.Policy.policies
    in
    let failures =
      List.filter_map
        (fun (p : Lcm_core.Policy.t) ->
          Printf.printf "policy %-14s %!" p.Lcm_core.Policy.name;
          match Stress.run ~policy:p ?faults ~jobs ~cases ~seed () with
          | Ok () ->
            Printf.printf "%d/%d cases OK\n%!" cases cases;
            None
          | Error e ->
            Printf.printf "FAILED\n%s\n%!" e;
            Some p.Lcm_core.Policy.name)
        policies
    in
    if failures <> [] then
      negative_verdict
        ("stress failures under: " ^ String.concat ", " failures)
  in
  Cmd.v
    (Cmd.info "stress"
       ~exits:
         (verdict_exits
            "when a case fails its check; the shrunk reproducer is printed.")
       ~doc:"Differential protocol stress test: run seeded random programs \
             through the full simulated stack and check every outcome \
             against the per-epoch spec plus protocol invariants.  \
             Failures print a shrunk reproducer; rerun it with the printed \
             $(b,--seed)/$(b,--cases)/$(b,--policy).")
    Term.(
      const run $ cases_arg $ seed_arg $ policy_arg $ faults_term $ jobs_arg)

let check_cmd =
  let module Check = Lcm_check.Check in
  let scenario_arg =
    Arg.(value & opt (some string) None
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Restrict to one named bounded scenario (see \
                   $(b,--list-scenarios)); default explores all of them.")
  in
  let list_scenarios_arg =
    Arg.(value & flag
         & info [ "list-scenarios" ]
             ~doc:"List the bounded scenario names and exit.")
  in
  let max_schedules_arg =
    Arg.(value & opt (int_at_least 1) 20_000
         & info [ "max-schedules" ] ~docv:"N"
             ~doc:"Cap on complete interleavings per configuration; hitting \
                   it reports $(b,capped) instead of $(b,exhausted).")
  in
  let random_arg =
    Arg.(value & opt (int_at_least 0) 0
         & info [ "random" ] ~docv:"N"
             ~doc:"Also explore N seeded random micro-configurations per \
                   policy (beyond the fixed scenarios).")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"S"
             ~doc:"Stream seed for $(b,--random) micro-configurations.")
  in
  let fault_budget_arg =
    Arg.(value & opt (int_at_least 0) 0
         & info [ "fault-budget" ] ~docv:"N"
             ~doc:"Compose the schedule space with up to N per-copy message \
                   fault choices (drop; also duplicate with $(b,--dup)).  0 \
                   checks the reliable network only.")
  in
  let dup_arg =
    Arg.(value & flag
         & info [ "dup" ]
             ~doc:"With $(b,--fault-budget), each in-budget copy may also be \
                   duplicated, not just dropped.")
  in
  let no_reduce_arg =
    Arg.(value & flag
         & info [ "no-reduce" ]
             ~doc:"Disable partial-order reduction (the persistent-set \
                   heuristic): enumerate every interleaving.  For \
                   cross-checking the reduction on tiny configurations.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"SCHED"
             ~doc:"Replay one schedule (dot-separated choice indices as \
                   printed in a counterexample, or $(b,-) for the default \
                   FIFO order) against the selected $(b,--scenario) and \
                   $(b,--policy) instead of exploring.")
  in
  let out_arg =
    Arg.(value & opt output_dir "out"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for counterexample artifacts (trace JSON + \
                   report).")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Print the check.* counters per configuration.")
  in
  let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
  (* The command line that replays a violation as exploration found it:
     [--scenario] rebuilds the explored configuration, not a shrunk one. *)
  let reproduce (v : Check.violation) =
    Printf.sprintf "lcm_sim check --policy %s --scenario %s --replay %s%s%s"
      v.Check.v_prog.Stress.policy.Lcm_core.Policy.name v.Check.v_label
      (Check.schedule_to_string v.Check.v_schedule)
      (if v.Check.v_fault_budget > 0 then
         Printf.sprintf " --fault-budget %d" v.Check.v_fault_budget
       else "")
      (if v.Check.v_dup then " --dup" else "")
  in
  (* A label as a file name: every character outside [A-Za-z0-9-]
     becomes '-', so [micro:seed=0:case=3] gives [micro-seed-0-case-3]. *)
  let slug =
    String.map (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> c | _ -> '-')
  in
  (* Replay one schedule, traced, and export its events to
     [out/SLUG.trace.json], SLUG being [name] slugged: the verdict, and
     the path when the run recorded any event. *)
  let replay_traced ~out ~name ~fault_budget ~dup ~schedule prog =
    let verdict, events = Check.replay ~fault_budget ~dup ~schedule prog in
    match events with
    | [] -> (verdict, None)
    | evs ->
      ensure_dir out;
      let path = Filename.concat out (slug name ^ ".trace.json") in
      Traceview.export_file ~path evs;
      (verdict, Some path)
  in
  let write_artifacts ~out ~reproduce (v : Check.violation) =
    ensure_dir out;
    let name =
      Printf.sprintf "%s-%s" v.Check.v_prog.Stress.policy.Lcm_core.Policy.name
        v.Check.v_label
    in
    let report_path = Filename.concat out (slug name ^ ".counterexample.txt") in
    let oc = open_out report_path in
    let ppf = Format.formatter_of_out_channel oc in
    Format.fprintf ppf "%a@." Check.pp_violation v;
    Format.fprintf ppf "reproduce: %s@." reproduce;
    close_out oc;
    let verdict, trace =
      replay_traced ~out ~name ~fault_budget:v.Check.v_fault_budget
        ~dup:v.Check.v_dup ~schedule:v.Check.v_schedule v.Check.v_prog
    in
    (match verdict with
    | Error _ -> ()
    | Ok () ->
      Printf.eprintf "warning: minimized schedule no longer fails on replay\n");
    Printf.printf "  artifacts: %s%s\n" report_path
      (match trace with Some path -> ", " ^ path | None -> "")
  in
  let run policy scenario list_scenarios max_schedules random seed fault_budget
      dup no_reduce replay out stats =
    let policies =
      match policy with Some p -> [ p ] | None -> Lcm_core.Policy.policies
    in
    if list_scenarios then begin
      List.iter
        (fun (n, _) -> print_endline n)
        (Check.scenarios ~policy:(List.hd policies));
      `Ok ()
    end
    else
      (* the default --out gets the converter's check too, before any
         replay or exploration writes under it *)
      match output_path ~dir:true out with
      | Error e -> `Error (true, "option '--out': " ^ e)
      | Ok _ -> (
        match replay with
        | Some sched_s -> (
          match (Check.schedule_of_string sched_s, scenario, policy) with
          | Error e, _, _ -> `Error (false, e)
          | Ok _, None, _ | Ok _, _, None ->
            `Error (false, "--replay needs --scenario and --policy")
          | Ok schedule, Some sname, Some p -> (
            match Check.configs ~scenario:sname ~policy:p () with
            | Error e -> `Error (false, e)
            | Ok configs -> (
              (* with no --random, the one configuration [sname] names *)
              let prog = snd (List.hd configs) in
              let verdict, trace =
                replay_traced ~out
                  ~name:
                    (Printf.sprintf "replay-%s-%s" p.Lcm_core.Policy.name sname)
                  ~fault_budget ~dup ~schedule prog
              in
              Option.iter (Printf.printf "trace: %s\n") trace;
              match verdict with
              | Ok () ->
                Printf.printf "replay %s on %s/%s: PASS\n"
                  (Check.schedule_to_string schedule) p.Lcm_core.Policy.name
                  sname;
                `Ok ()
              | Error report ->
                Printf.printf "replay %s on %s/%s: FAIL\n%s\n"
                  (Check.schedule_to_string schedule) p.Lcm_core.Policy.name
                  sname report;
                negative_verdict "replayed schedule fails")))
        | None -> (
          let configs p = Check.configs ?scenario ~random ~seed ~policy:p () in
          (* a label names the same configuration under every policy, so
             an unknown --scenario is rejected before anything runs *)
          match configs (List.hd policies) with
          | Error e -> `Error (false, e)
          | Ok _ ->
            let violations = ref 0 in
            let capped = ref 0 in
            List.iter
              (fun (p : Lcm_core.Policy.t) ->
                List.iter
                  (fun (label, prog) ->
                    let outcome, st =
                      Check.explore ~label ~max_schedules ~fault_budget ~dup
                        ~reduce:(not no_reduce) prog
                    in
                    (match outcome with
                    | Check.Exhausted ->
                      Printf.printf
                        "%-14s %-28s exhausted: %d schedules, %d choice \
                         points, %d+%d pruned\n%!"
                        p.Lcm_core.Policy.name label st.Check.schedules
                        st.Check.choice_points st.Check.sleep_prunes
                        st.Check.pset_prunes
                    | Check.Capped ->
                      incr capped;
                      Printf.printf
                        "%-14s %-28s CAPPED at %d schedules (raise \
                         --max-schedules to exhaust)\n%!"
                        p.Lcm_core.Policy.name label st.Check.schedules
                    | Check.Found found ->
                      incr violations;
                      Printf.printf
                        "%-14s %-28s VIOLATION after %d schedules\n%!"
                        p.Lcm_core.Policy.name label st.Check.schedules;
                      let reproduce = reproduce found in
                      let v = Check.shrink_violation found in
                      Format.printf "%a@." Check.pp_violation v;
                      Printf.printf "  reproduce: %s\n%!" reproduce;
                      write_artifacts ~out ~reproduce v);
                    if stats then Format.printf "%a@." Check.pp_stats st)
                  (Result.get_ok (configs p)))
              policies;
            if !violations > 0 then
              negative_verdict
                (Printf.sprintf "%d violation(s) found" !violations)
            else begin
              if !capped > 0 then
                Printf.printf
                  "note: %d configuration(s) capped, not exhausted\n" !capped;
              `Ok ()
            end))
  in
  Cmd.v
    (Cmd.info "check"
       ~exits:
         (verdict_exits
            "when a schedule violates the spec or a protocol invariant, or \
             a $(b,--replay) fails.")
       ~doc:"Exhaustive small-scope model checking: enumerate every \
             message-delivery and same-timestamp handler interleaving of \
             bounded configurations through the engine's choice-point hook, \
             with persistent-set partial-order reduction, \
             checking protocol invariants and the stress harness's \
             abstract-state-machine spec.  Optionally composes bounded \
             per-copy fault choices ($(b,--fault-budget)).  Violations are \
             shrunk to a \
             minimal (configuration, schedule) counterexample that \
             $(b,--replay) reproduces deterministically.")
    Term.(
      ret
        (const run $ policy_arg $ scenario_arg $ list_scenarios_arg
       $ max_schedules_arg $ random_arg $ seed_arg $ fault_budget_arg
       $ dup_arg $ no_reduce_arg $ replay_arg $ out_arg $ stats_arg))

let trace_validate_cmd =
  let file_arg =
    Arg.(required
         & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Trace JSON file to validate.")
  in
  let run file =
    match Traceview.validate_file file with
    | Ok n -> Printf.printf "%s: valid Chrome trace, %d events\n" file n
    | Error e -> negative_verdict e
  in
  Cmd.v
    (Cmd.info "trace-validate"
       ~exits:(verdict_exits "when the file is unreadable or not a valid trace.")
       ~doc:"Check that a --trace-out file is well-formed (parses as JSON, \
             non-empty traceEvents, monotone timestamps).")
    Term.(const run $ file_arg)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "lcm_sim" ~version:"1.0"
      ~doc:"Run LCM/RSM paper benchmarks on the simulated multiprocessor."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            stencil_cmd;
            threshold_cmd;
            adaptive_cmd;
            unstructured_cmd;
            sor_cmd;
            reduce_cmd;
            false_sharing_cmd;
            nbody_cmd;
            synthetic_cmd;
            experiments_cmd;
            stress_cmd;
            check_cmd;
            trace_validate_cmd;
            info_cmd;
          ]))
