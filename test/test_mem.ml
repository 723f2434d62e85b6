(* Tests for words, blocks and the global address space. *)

open Lcm_mem

(* ------------------------------------------------------------------ *)
(* Word                                                               *)
(* ------------------------------------------------------------------ *)

let test_word_float_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0)) (string_of_float f) f
        (Word.to_float (Word.of_float f)))
    [ 0.0; 1.0; -1.0; 0.5; 1024.0; -3.25 ]

let test_word_float32_rounding () =
  (* 0.1 is not representable in float32: the roundtrip must be stable. *)
  let once = Word.to_float (Word.of_float 0.1) in
  let twice = Word.to_float (Word.of_float once) in
  Alcotest.(check (float 0.0)) "stable after one rounding" once twice;
  Alcotest.(check bool) "rounded" true (once <> 0.1)

let test_word_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (Word.to_int (Word.of_int n)))
    [ 0; 1; -1; 12345; -12345; 0x7FFFFFFF; -0x80000000 ]

let test_word_int_truncates () =
  Alcotest.(check int) "wraps to 32 bits" (-1) (Word.to_int (Word.of_int 0xFFFFFFFF))

let test_word_float_ops () =
  let a = Word.of_float 1.5 and b = Word.of_float 2.25 in
  Alcotest.(check (float 0.0)) "add" 3.75 (Word.to_float (Word.float_add a b));
  Alcotest.(check (float 0.0)) "min" 1.5 (Word.to_float (Word.float_min a b));
  Alcotest.(check (float 0.0)) "max" 2.25 (Word.to_float (Word.float_max a b))

let prop_word_float_roundtrip =
  QCheck.Test.make ~name:"float32 values roundtrip" ~count:500
    QCheck.(float_range (-1e6) 1e6)
    (fun f ->
      let f32 = Word.to_float (Word.of_float f) in
      Word.to_float (Word.of_float f32) = f32)

(* ------------------------------------------------------------------ *)
(* Block                                                              *)
(* ------------------------------------------------------------------ *)

let test_block_make_copy () =
  let b = Block.make ~words:8 in
  Alcotest.(check int) "zeroed" 0 b.(3);
  b.(3) <- 42;
  let c = Block.copy b in
  b.(3) <- 0;
  Alcotest.(check int) "copy is deep" 42 c.(3)

let test_block_blit_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Block.blit: length mismatch")
    (fun () -> Block.blit ~src:(Block.make ~words:4) ~dst:(Block.make ~words:8))

let test_block_merge_masked () =
  let src = [| 1; 2; 3; 4 |] and dst = [| 0; 0; 0; 0 |] in
  Block.merge_masked ~src ~dst ~mask:(Lcm_util.Mask.of_list [ 1; 3 ]);
  Alcotest.(check (array int)) "only masked words" [| 0; 2; 0; 4 |] dst

let prop_block_merge_idempotent =
  let gen = QCheck.(pair (array_of_size (QCheck.Gen.return 8) small_int) (list (int_bound 7))) in
  QCheck.Test.make ~name:"masked merge idempotent" ~count:200 gen (fun (src, idxs) ->
      let mask = Lcm_util.Mask.of_list idxs in
      let d1 = Block.make ~words:8 and d2 = Block.make ~words:8 in
      Block.merge_masked ~src ~dst:d1 ~mask;
      Block.merge_masked ~src ~dst:d2 ~mask;
      Block.merge_masked ~src ~dst:d2 ~mask;
      d1 = d2)

(* ------------------------------------------------------------------ *)
(* Gmem                                                               *)
(* ------------------------------------------------------------------ *)

let prop_block_disjoint_merges_commute =
  (* reconciliation must not depend on flush arrival order when the dirty
     masks are disjoint (C**'s conflict-free programs) *)
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 2 4)
          (pair (array_size (return 8) small_int) (list_size (int_range 0 4) (int_bound 7))))
  in
  QCheck.Test.make ~name:"disjoint masked merges commute" ~count:200 gen
    (fun flushes ->
      (* make masks disjoint by assigning each word to its last claimant *)
      let owner = Array.make 8 (-1) in
      List.iteri
        (fun fi (_, idxs) -> List.iter (fun w -> owner.(w) <- fi) idxs)
        flushes;
      let flushes =
        List.mapi
          (fun fi (data, idxs) ->
            let mask =
              Lcm_util.Mask.of_list (List.filter (fun w -> owner.(w) = fi) idxs)
            in
            (data, mask))
          flushes
      in
      let apply order =
        let shadow = Block.make ~words:8 in
        List.iter
          (fun (data, mask) -> Block.merge_masked ~src:data ~dst:shadow ~mask)
          order;
        Array.to_list shadow
      in
      apply flushes = apply (List.rev flushes))

let mk () = Gmem.create ~nnodes:4 ~words_per_block:8

let test_gmem_create_validation () =
  Alcotest.check_raises "nnodes" (Invalid_argument "Gmem.create: nnodes must be >= 1")
    (fun () -> ignore (Gmem.create ~nnodes:0 ~words_per_block:8));
  Alcotest.check_raises "wpb" (Invalid_argument "Gmem.create: invalid words_per_block")
    (fun () -> ignore (Gmem.create ~nnodes:2 ~words_per_block:0));
  (* block and offset arithmetic is a shift and a mask *)
  Alcotest.check_raises "wpb not a power of two"
    (Invalid_argument "Gmem.create: invalid words_per_block")
    (fun () -> ignore (Gmem.create ~nnodes:2 ~words_per_block:3))

let test_gmem_alloc_alignment () =
  let g = mk () in
  let a1 = Gmem.alloc g ~dist:Gmem.Interleaved ~nwords:5 in
  let a2 = Gmem.alloc g ~dist:Gmem.Interleaved ~nwords:1 in
  Alcotest.(check int) "first at 0" 0 a1;
  Alcotest.(check int) "rounded to block" 8 a2;
  Alcotest.(check int) "allocated words" 16 (Gmem.allocated_words g)

let test_gmem_on_node () =
  let g = mk () in
  let a = Gmem.alloc g ~dist:(Gmem.On 2) ~nwords:32 in
  List.iter
    (fun b -> Alcotest.(check int) "home" 2 (Gmem.home_of_block g b))
    (Gmem.region_blocks g a ~nwords:32)

let test_gmem_on_node_range () =
  let g = mk () in
  Alcotest.check_raises "bad node" (Invalid_argument "Gmem.alloc: node out of range")
    (fun () -> ignore (Gmem.alloc g ~dist:(Gmem.On 4) ~nwords:8))

let test_gmem_interleaved () =
  let g = mk () in
  let a = Gmem.alloc g ~dist:Gmem.Interleaved ~nwords:(8 * 8) in
  let homes =
    List.map (fun b -> Gmem.home_of_block g b) (Gmem.region_blocks g a ~nwords:(8 * 8))
  in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 3; 0; 1; 2; 3 ] homes

let test_gmem_chunked_even () =
  let g = mk () in
  let a = Gmem.alloc g ~dist:Gmem.Chunked ~nwords:(8 * 8) in
  let homes =
    List.map (fun b -> Gmem.home_of_block g b) (Gmem.region_blocks g a ~nwords:(8 * 8))
  in
  Alcotest.(check (list int)) "contiguous chunks" [ 0; 0; 1; 1; 2; 2; 3; 3 ] homes

let test_gmem_chunked_uneven () =
  let g = mk () in
  (* 5 blocks over 4 nodes: node 0 gets 2, the rest 1 each. *)
  let a = Gmem.alloc g ~dist:Gmem.Chunked ~nwords:(8 * 5) in
  let homes =
    List.map (fun b -> Gmem.home_of_block g b) (Gmem.region_blocks g a ~nwords:(8 * 5))
  in
  Alcotest.(check (list int)) "uneven chunks" [ 0; 0; 1; 2; 3 ] homes

let test_gmem_addr_math () =
  let g = mk () in
  let a = Gmem.alloc g ~dist:Gmem.Interleaved ~nwords:64 in
  Alcotest.(check int) "block_of_addr" 2 (Gmem.block_of_addr g (a + 16));
  Alcotest.(check int) "offset" 3 (Gmem.offset_in_block g (a + 19))

let test_gmem_unallocated_home () =
  let g = mk () in
  let expects_invalid fn f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s: expected Invalid_argument" fn
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (fn ^ " names the block") true
        (String.length msg > 0
        && String.contains msg '9'
        &&
        let rec mentions i =
          i + 1 < String.length msg
          && ((msg.[i] = '9' && msg.[i + 1] = '9') || mentions (i + 1))
        in
        mentions 0)
  in
  expects_invalid "home_of_block" (fun () -> Gmem.home_of_block g 99);
  (* negative block numbers are rejected the same way *)
  (match Gmem.home_of_block g (-1) with
  | _ -> Alcotest.fail "negative block: expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (* allocation extends the valid range *)
  ignore (Gmem.alloc g ~dist:Gmem.Interleaved ~nwords:8);
  Alcotest.(check int) "block 0 valid after alloc" 0 (Gmem.home_of_block g 0)

let test_gmem_mixed_regions () =
  (* three regions with different distributions coexist; each keeps its own
     home mapping and region_blocks stays within bounds *)
  let g = mk () in
  let a = Gmem.alloc g ~dist:(Gmem.On 3) ~nwords:16 in
  let b = Gmem.alloc g ~dist:Gmem.Interleaved ~nwords:32 in
  let c = Gmem.alloc g ~dist:Gmem.Chunked ~nwords:64 in
  Alcotest.(check int) "a home" 3 (Gmem.home_of_addr g a);
  Alcotest.(check int) "b second block home" 1 (Gmem.home_of_addr g (b + 8));
  Alcotest.(check int) "c last chunk home" 3 (Gmem.home_of_addr g (c + 63));
  Alcotest.(check int) "regions do not overlap" (a + 16) b;
  Alcotest.(check int) "and remain contiguous" (b + 32) c

let test_gmem_region_blocks_empty () =
  let g = mk () in
  let a = Gmem.alloc g ~dist:Gmem.Chunked ~nwords:8 in
  Alcotest.(check (list int)) "zero words" [] (Gmem.region_blocks g a ~nwords:0);
  Alcotest.(check int) "one block" 1 (List.length (Gmem.region_blocks g a ~nwords:1))

let test_gmem_alloc_zero_rejected () =
  let g = mk () in
  Alcotest.check_raises "zero" (Invalid_argument "Gmem.alloc: nwords must be positive")
    (fun () -> ignore (Gmem.alloc g ~dist:Gmem.Chunked ~nwords:0))

let prop_gmem_chunked_balanced =
  QCheck.Test.make ~name:"chunked distribution balanced" ~count:100
    QCheck.(pair (int_range 1 16) (int_range 1 200))
    (fun (nnodes, nblocks) ->
      let g = Gmem.create ~nnodes ~words_per_block:8 in
      let a = Gmem.alloc g ~dist:Gmem.Chunked ~nwords:(8 * nblocks) in
      let counts = Array.make nnodes 0 in
      List.iter
        (fun b ->
          let h = Gmem.home_of_block g b in
          counts.(h) <- counts.(h) + 1)
        (Gmem.region_blocks g a ~nwords:(8 * nblocks));
      let mn = Array.fold_left min max_int counts
      and mx = Array.fold_left max 0 counts in
      (* contiguity plus balance within one block *)
      mx - mn <= 1 || nblocks < nnodes)

let prop_gmem_homes_monotone_chunked =
  QCheck.Test.make ~name:"chunked homes non-decreasing" ~count:100
    QCheck.(pair (int_range 1 16) (int_range 1 100))
    (fun (nnodes, nblocks) ->
      let g = Gmem.create ~nnodes ~words_per_block:8 in
      let a = Gmem.alloc g ~dist:Gmem.Chunked ~nwords:(8 * nblocks) in
      let homes =
        List.map (fun b -> Gmem.home_of_block g b)
          (Gmem.region_blocks g a ~nwords:(8 * nblocks))
      in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | [ _ ] | [] -> true
      in
      non_decreasing homes)

(* The per-block home table filled at alloc time must agree with the
   distribution rules, restated here as lists of homes per region (an
   independent reference: [Chunked] as nnodes contiguous runs, the first
   [nblocks mod nnodes] one block longer), across random multi-region
   layouts mixing all three distribution modes. *)
let prop_gmem_home_cache_consistent =
  let region_gen =
    QCheck.Gen.(
      pair (int_range 0 2) (int_range 1 40)
      (* (dist selector, nblocks); On-node id derived from nblocks *))
  in
  let gen = QCheck.make QCheck.Gen.(pair (int_range 1 16) (list_size (int_range 1 8) region_gen)) in
  QCheck.Test.make ~name:"gmem home cache ≡ uncached recompute" ~count:200 gen
    (fun (nnodes, regions) ->
      let g = Gmem.create ~nnodes ~words_per_block:8 in
      let homes (sel, nblocks) =
        let dist, homes =
          match sel with
          | 0 ->
            let n = nblocks mod nnodes in
            (Gmem.On n, List.init nblocks (fun _ -> n))
          | 1 -> (Gmem.Interleaved, List.init nblocks (fun i -> i mod nnodes))
          | _ ->
            let run n = (nblocks / nnodes) + if n < nblocks mod nnodes then 1 else 0 in
            ( Gmem.Chunked,
              List.concat (List.init nnodes (fun n -> List.init (run n) (fun _ -> n))) )
        in
        ignore (Gmem.alloc g ~dist ~nwords:(8 * nblocks));
        homes
      in
      let expected = List.concat_map homes regions in
      List.init (Gmem.allocated_words g / 8) (Gmem.home_of_block g) = expected)

let () =
  Alcotest.run "lcm_mem"
    [
      ( "word",
        [
          ("float roundtrip", `Quick, test_word_float_roundtrip);
          ("float32 rounding", `Quick, test_word_float32_rounding);
          ("int roundtrip", `Quick, test_word_int_roundtrip);
          ("int truncates", `Quick, test_word_int_truncates);
          ("float ops", `Quick, test_word_float_ops);
          QCheck_alcotest.to_alcotest prop_word_float_roundtrip;
        ] );
      ( "block",
        [
          ("make/copy", `Quick, test_block_make_copy);
          ("blit mismatch", `Quick, test_block_blit_mismatch);
          ("merge masked", `Quick, test_block_merge_masked);
          QCheck_alcotest.to_alcotest prop_block_merge_idempotent;
          QCheck_alcotest.to_alcotest prop_block_disjoint_merges_commute;
        ] );
      ( "gmem",
        [
          ("create validation", `Quick, test_gmem_create_validation);
          ("alloc alignment", `Quick, test_gmem_alloc_alignment);
          ("on-node", `Quick, test_gmem_on_node);
          ("on-node range", `Quick, test_gmem_on_node_range);
          ("interleaved", `Quick, test_gmem_interleaved);
          ("chunked even", `Quick, test_gmem_chunked_even);
          ("chunked uneven", `Quick, test_gmem_chunked_uneven);
          ("addr math", `Quick, test_gmem_addr_math);
          ("unallocated home", `Quick, test_gmem_unallocated_home);
          ("mixed regions", `Quick, test_gmem_mixed_regions);
          ("region_blocks edge cases", `Quick, test_gmem_region_blocks_empty);
          ("alloc zero rejected", `Quick, test_gmem_alloc_zero_rejected);
          QCheck_alcotest.to_alcotest prop_gmem_chunked_balanced;
          QCheck_alcotest.to_alcotest prop_gmem_homes_monotone_chunked;
          QCheck_alcotest.to_alcotest prop_gmem_home_cache_consistent;
        ] );
    ]
