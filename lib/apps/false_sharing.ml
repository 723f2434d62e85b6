open Lcm_cstar
module Gmem = Lcm_mem.Gmem
module Memeff = Lcm_tempest.Memeff
module Machine = Lcm_tempest.Machine

type params = { blocks : int; rounds : int }

let run rt { blocks; rounds } =
  let mach = Runtime.machine rt in
  let gmem = Machine.gmem mach in
  let wpb = Gmem.words_per_block gmem in
  let nnodes = Machine.nnodes mach in
  let base = Gmem.alloc gmem ~dist:(Gmem.On 0) ~nwords:(blocks * wpb) in
  let proto = Runtime.proto rt in
  for w = 0 to (blocks * wpb) - 1 do
    Lcm_core.Proto.poke proto (base + w) 0
  done;
  (* Processor p owns word (p mod wpb) of the blocks whose index is
     congruent to (p / wpb) modulo [stride]: up to wpb processors write
     disjoint words of each block, and no word has two writers. *)
  let stride = (nnodes + wpb - 1) / wpb in
  Bench_result.measure rt ~name:"false-sharing" (fun () ->
      for iter = 0 to rounds - 1 do
        Runtime.parallel_apply rt ~iter ~n:nnodes (fun ctx ->
            let p = ctx.Ctx.index in
            let word = p mod wpb and group = p / wpb in
            for b = 0 to blocks - 1 do
              if b mod stride = group then begin
                let addr = base + (b * wpb) + word in
                (match Runtime.strategy rt with
                | Runtime.Lcm_directives ->
                  Memeff.directive (Memeff.Mark_modification addr)
                | Runtime.Explicit_copy -> ());
                Memeff.store addr (Memeff.load addr + p + 1)
              end
            done)
      done;
      let checksum = ref 0.0 in
      for w = 0 to (blocks * wpb) - 1 do
        checksum :=
          !checksum +. float_of_int (Lcm_core.Proto.peek proto (base + w))
      done;
      !checksum)
