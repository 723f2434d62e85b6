(* Dynamic data structures under LCM (the theme of paper section 6.2).

   Each partition's invocation filters its slice of a shared array and
   builds a linked list of the selected values from blocks allocated at run
   time — the kind of pointer-based, input-dependent structure no compiler
   can analyse.  The allocator and the lists live entirely in simulated
   shared memory; a sequential pass then walks all the lists.

     dune exec examples/dynamic_list.exe *)

open Lcm_cstar
module Memeff = Lcm_tempest.Memeff

let nnodes = 8
let n = 512

let value i = (i * 37) mod 101
let selected v = v mod 7 = 0

let run policy =
  let machine =
    Lcm_tempest.Machine.create ~nnodes ~words_per_block:8
      ~topology:(Lcm_net.Topology.Fat_tree { arity = 4 })
      ()
  in
  let proto = Lcm_core.Proto.install ~policy machine in
  let rt = Runtime.create proto ~schedule:Schedule.Static in
  let data = Runtime.alloc1d rt ~n ~dist:Lcm_mem.Gmem.Chunked in
  Agg.fill data (fun _ i -> value i);
  (* one list head per partition, each in its own block to avoid sharing *)
  let gmem = Lcm_tempest.Machine.gmem machine in
  let heads =
    Array.init nnodes (fun nid ->
        Lcm_mem.Gmem.alloc gmem ~dist:(Lcm_mem.Gmem.On nid) ~nwords:8)
  in
  Array.iter (fun h -> Lcm_core.Proto.poke proto h 0) heads;
  let alloc = Shalloc.create proto ~blocks_per_node:128 in
  let ranges = Schedule.chunks ~n ~nchunks:nnodes in
  (* parallel phase: filter own slice into a fresh linked list;
     list node layout: [w0 = value; w1 = next address or 0]  *)
  Runtime.parallel_apply rt ~n:nnodes (fun ctx ->
      let part = ctx.Ctx.index in
      let lo, hi = ranges.(part) in
      for i = lo to hi - 1 do
        let v = Agg.get1 data i in
        if selected v then
          match Shalloc.alloc alloc ~node:ctx.Ctx.node with
          | None -> () (* arena exhausted: drop (counted by the checksum) *)
          | Some obj ->
            Memeff.store obj v;
            Memeff.store (obj + 1) (Memeff.load heads.(part));
            Memeff.store heads.(part) obj
      done);
  (* sequential phase: node 0 walks every partition's list *)
  let total = ref 0 and count = ref 0 in
  Runtime.sequential rt (fun () ->
      Array.iter
        (fun head ->
          let rec walk p =
            if p <> 0 then begin
              total := !total + Memeff.load p;
              incr count;
              walk (Memeff.load (p + 1))
            end
          in
          walk (Memeff.load head))
        heads);
  (!total, !count, Runtime.elapsed rt)

let () =
  let expected_total = ref 0 and expected_count = ref 0 in
  for i = 0 to n - 1 do
    if selected (value i) then begin
      expected_total := !expected_total + value i;
      incr expected_count
    end
  done;
  Printf.printf "expected: %d values summing to %d\n\n" !expected_count !expected_total;
  List.iter
    (fun (name, policy) ->
      let total, count, cycles = run policy in
      Printf.printf "%-12s count=%d total=%d (%s) cycles=%d\n" name count total
        (if total = !expected_total && count = !expected_count then "ok"
         else "MISMATCH")
        cycles)
    [
      ("stache", Lcm_core.Policy.stache);
      ("lcm-mcc", Lcm_core.Policy.lcm_mcc);
    ]
