open Lcm_cstar
module Gmem = Lcm_mem.Gmem
module Machine = Lcm_tempest.Machine

type sharing = [ `Private | `Neighbour | `Random | `Hot of int ]

type params = {
  blocks_per_node : int;
  phases : int;
  invocations_per_node : int;
  ops_per_invocation : int;
  read_fraction : float;
  sharing : sharing;
  seed : int;
}

let default =
  {
    blocks_per_node = 8;
    phases = 4;
    invocations_per_node = 8;
    ops_per_invocation = 16;
    read_fraction = 0.75;
    sharing = `Neighbour;
    seed = 7;
  }

let sharing_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "private" ] -> Ok `Private
  | [ "neighbour" ] | [ "neighbor" ] -> Ok `Neighbour
  | [ "random" ] -> Ok `Random
  | [ "hot"; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (`Hot n)
    | Some _ | None -> Error "hot: expected positive block count")
  | _ -> Error (Printf.sprintf "unknown sharing pattern %S" s)

let sharing_to_string = function
  | `Private -> "private"
  | `Neighbour -> "neighbour"
  | `Random -> "random"
  | `Hot n -> Printf.sprintf "hot:%d" n

let run rt p =
  if p.read_fraction < 0.0 || p.read_fraction > 1.0 then
    invalid_arg "Synthetic.run: read_fraction must be in [0,1]";
  let mach = Runtime.machine rt in
  let nnodes = Machine.nnodes mach in
  let wpb = Gmem.words_per_block (Machine.gmem mach) in
  let total_words = p.blocks_per_node * nnodes * wpb in
  let a = Runtime.alloc1d rt ~n:total_words ~dist:Gmem.Chunked in
  Agg.fill a (fun _ w -> w mod 251);
  let n_inv = nnodes * p.invocations_per_node in
  (* every invocation owns a private write range; the ranges partition the
     whole aggregate, so writes never conflict and results are identical
     under every memory system *)
  let ranges = Schedule.chunks ~n:total_words ~nchunks:n_inv in
  let node_words = p.blocks_per_node * wpb in
  (* read-address generator per pattern, drawn deterministically per
     (phase, invocation, op) *)
  let read_addr rng ~inv =
    match p.sharing with
    | `Private ->
      let lo, hi = ranges.(inv) in
      lo + Lcm_util.Rng.int rng (max 1 (hi - lo))
    | `Neighbour ->
      (* reads span the node's own band and its two neighbours *)
      let node_part = inv mod nnodes in
      let which = Lcm_util.Rng.int rng 3 - 1 in
      let part = (node_part + which + nnodes) mod nnodes in
      (part * node_words) + Lcm_util.Rng.int rng node_words
    | `Random -> Lcm_util.Rng.int rng total_words
    | `Hot hot_blocks ->
      if Lcm_util.Rng.int rng 10 < 8 then
        (* 80% of reads hit the hot set at the front of the space *)
        Lcm_util.Rng.int rng (min total_words (hot_blocks * wpb))
      else Lcm_util.Rng.int rng total_words
  in
  let explicit_copy = Runtime.strategy rt = Runtime.Explicit_copy in
  Bench_result.measure rt ~name:("synthetic-" ^ sharing_to_string p.sharing)
    (fun () ->
      for phase = 0 to p.phases - 1 do
        (* conservative pre-copy under explicit copying: the write sets are
           data-dependent, so every value must move to the new buffer
           first *)
        if explicit_copy then
          Runtime.parallel_apply rt ~iter:phase ~schedule:Schedule.Static
            ~n:n_inv (fun ctx ->
              let lo, hi = ranges.(ctx.Ctx.index) in
              for w = lo to hi - 1 do
                Agg.set1 a w (Agg.get1 a w)
              done);
        Runtime.parallel_apply rt ~iter:phase ~n:n_inv (fun ctx ->
            let inv = ctx.Ctx.index in
            let rng =
              Lcm_util.Rng.create
                ~seed:(p.seed + (phase * 7919) + (inv * 104729))
            in
            let lo, hi = ranges.(inv) in
            let span = max 1 (hi - lo) in
            for _ = 1 to p.ops_per_invocation do
              if Lcm_util.Rng.float rng 1.0 < p.read_fraction then
                (* reads drive sharing traffic; written values are
                   independent of them so that read-own-write visibility
                   differences between the strategies cannot change the
                   data *)
                ignore (Agg.get1 a (read_addr rng ~inv))
              else begin
                let w = lo + Lcm_util.Rng.int rng span in
                Agg.set1 a w (((phase * 31) + w) mod 1009)
              end
            done);
        Agg.swap a
      done;
      let checksum = ref 0.0 in
      for w = 0 to total_words - 1 do
        checksum := !checksum +. float_of_int (Agg.peek a 0 w)
      done;
      !checksum)
