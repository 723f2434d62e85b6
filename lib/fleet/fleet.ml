module Engine = Lcm_sim.Engine

module Budget = struct
  type t = { max_events : int option; wall_s : float option }

  let none = { max_events = None; wall_s = None }

  let make ?max_events ?wall_s () =
    (match max_events with
    | Some n when n <= 0 -> invalid_arg "Fleet.Budget.make: max_events <= 0"
    | Some _ | None -> ());
    (match wall_s with
    | Some s when s <= 0.0 -> invalid_arg "Fleet.Budget.make: wall_s <= 0"
    | Some _ | None -> ());
    { max_events; wall_s }
end

type timeout = Event_budget of { events : int; at_cycle : int } | Wall_clock of { limit_s : float }

type 'a outcome =
  | Done of 'a
  | Failed of { exn : string; backtrace : string }
  | Timed_out of timeout

type 'a cell_result = {
  index : int;
  label : string;
  outcome : 'a outcome;
  host_s : float;
  events : int;
}

let outcome_string = function
  | Done _ -> "done"
  | Failed { exn; _ } -> "failed: " ^ exn
  | Timed_out (Event_budget { events; at_cycle }) ->
    Printf.sprintf "timed-out: event budget %d exhausted at cycle %d" events
      at_cycle
  | Timed_out (Wall_clock { limit_s }) ->
    Printf.sprintf "timed-out: wall clock over %gs" limit_s

let resolve_jobs = function
  | 0 -> max 1 (Domain.recommended_domain_count ())
  | n -> max 1 n

(* ------------------------------------------------------------------ *)
(* Progress                                                            *)
(* ------------------------------------------------------------------ *)

module Progress = struct
  type t = {
    tty : bool;
    total : int;
    started : float;
    mutable done_ : int;
    mutable last_draw : float;
    mutable finished : (string * float) list;  (* (label, host_s), any order *)
  }

  let create ~total =
    {
      tty = (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false);
      total;
      started = Unix.gettimeofday ();
      done_ = 0;
      last_draw = 0.0;
      finished = [];
    }

  let slowest k finished =
    List.sort (fun (_, a) (_, b) -> compare b a) finished
    |> List.filteri (fun i _ -> i < k)

  let draw t ~now =
    let elapsed = now -. t.started in
    let eta =
      if t.done_ = 0 then nan
      else elapsed /. float_of_int t.done_ *. float_of_int (t.total - t.done_)
    in
    let slow =
      match slowest 1 t.finished with
      | [ (label, s) ] -> Printf.sprintf "  slowest %s %.2fs" label s
      | _ -> ""
    in
    let line =
      Printf.sprintf "[%d/%d] %3.0f%%  %.1fs elapsed%s%s" t.done_ t.total
        (100.0 *. float_of_int t.done_ /. float_of_int (max 1 t.total))
        elapsed
        (if Float.is_nan eta then "" else Printf.sprintf "  eta %.1fs" eta)
        slow
    in
    if t.tty then Printf.eprintf "\r\027[K%s%!" line
    else Printf.eprintf "%s\n%!" line

  let cell_done t ~label ~host_s =
    t.done_ <- t.done_ + 1;
    t.finished <- (label, host_s) :: t.finished;
    let now = Unix.gettimeofday () in
    if t.done_ = t.total || now -. t.last_draw >= 0.1 then begin
      t.last_draw <- now;
      draw t ~now
    end

  let finish t =
    draw t ~now:(Unix.gettimeofday ());
    if t.tty then prerr_char '\n';
    let elapsed = Unix.gettimeofday () -. t.started in
    Printf.eprintf "%d cell%s in %.1fs host time\n" t.done_
      (if t.done_ = 1 then "" else "s")
      elapsed;
    (match slowest 3 t.finished with
    | [] -> ()
    | slow ->
      Printf.eprintf "slowest:\n";
      List.iter
        (fun (label, s) -> Printf.eprintf "  %8.2fs  %s\n" s label)
        slow);
    flush stderr
end

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  (* Raised by the wall-clock guard [run_cell] installs, caught there. *)
  exception Wall_clock_exceeded of { limit_s : float }

  let run_cell ~(budget : Budget.t) ~index ~label thunk =
    (* a [Failed] outcome carries its backtrace, and a domain records one
       only once asked to: spawned domains start with recording off *)
    Printexc.record_backtrace true;
    let t0 = Unix.gettimeofday () in
    let guard =
      Option.map
        (fun limit_s ->
          let deadline = t0 +. limit_s in
          fun () ->
            if Unix.gettimeofday () > deadline then
              raise (Wall_clock_exceeded { limit_s }))
        budget.Budget.wall_s
    in
    let ev0 = Engine.domain_events () in
    let outcome =
      match
        Engine.with_budget ?max_events:budget.Budget.max_events ?guard thunk
      with
      | v -> Done v
      | exception Engine.Budget_exhausted { events; now } ->
        Timed_out (Event_budget { events; at_cycle = now })
      | exception Wall_clock_exceeded { limit_s } ->
        Timed_out (Wall_clock { limit_s })
      | exception exn ->
        let backtrace = Printexc.get_backtrace () in
        Failed { exn = Printexc.to_string exn; backtrace }
    in
    {
      index;
      label;
      outcome;
      host_s = Unix.gettimeofday () -. t0;
      events = Engine.domain_events () - ev0;
    }

  let run ?(jobs = 1) ?(budget = Budget.none) ?progress cells =
    let jobs = resolve_jobs jobs in
    let n = Array.length cells in
    let results = Array.make n None in
    let progress_mu = Mutex.create () in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let label, thunk = cells.(i) in
        let r = run_cell ~budget ~index:i ~label thunk in
        (* distinct slots: no two domains ever write the same index *)
        results.(i) <- Some r;
        Option.iter
          (fun p ->
            Mutex.protect progress_mu (fun () ->
                Progress.cell_done p ~label ~host_s:r.host_s))
          progress;
        worker ()
      end
    in
    (* the calling domain is the last of the [jobs] workers, and at
       [jobs = 1] the only one: no domain is spawned *)
    let others =
      Array.init (min jobs (max 1 n) - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join others;
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every index 0..n-1 was claimed exactly once *))
      results
end
