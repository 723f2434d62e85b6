(* Unit and property tests for Lcm_util: heap, rng, mask, stats, tablefmt. *)

open Lcm_util

let check = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair int int))) "pop empty" None (Heap.pop h)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.add h ~key:k k) [ 5; 3; 9; 1; 7; 3 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (k, _) ->
      out := k :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 3; 3; 5; 7; 9 ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i tag -> Heap.add h ~key:(i mod 2) tag) [ "a"; "b"; "c"; "d"; "e" ];
  (* keys: a=0 b=1 c=0 d=1 e=0; expect a c e (key 0, FIFO) then b d *)
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  let out =
    let rec take n = if n = 0 then [] else let v = pop () in v :: take (n - 1) in
    take 5
  in
  Alcotest.(check (list string)) "fifo among equals" [ "a"; "c"; "e"; "b"; "d" ] out

let test_heap_clear_and_reuse () =
  let h = Heap.create () in
  Heap.add h ~key:1 "x";
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Heap.add h ~key:2 "y";
  Alcotest.(check (option (pair int string))) "reuse" (Some (2, "y")) (Heap.pop h)

(* [clear] keeps capacity: filling past the initial 16-slot chunk, clearing
   and refilling must behave exactly like a fresh heap (ordering, FIFO ties,
   length) — the eviction lookaside rebuilds its heap this way constantly. *)
let test_heap_clear_keeps_working_at_capacity () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.add h ~key:(100 - i) i
  done;
  Heap.clear h;
  check "cleared length" 0 (Heap.length h);
  for i = 0 to 49 do
    Heap.add h ~key:(i mod 5) i
  done;
  check "refilled length" 50 (Heap.length h);
  let prev_key = ref min_int and prev_val = ref min_int and ok = ref true in
  let rec drain () =
    if not (Heap.is_empty h) then begin
      let k = Heap.top_key h in
      let v = Heap.pop_exn h in
      if k < !prev_key then ok := false;
      if k = !prev_key && v < !prev_val then ok := false (* FIFO among ties *);
      prev_key := k;
      prev_val := v;
      drain ()
    end
  in
  drain ();
  Alcotest.(check bool) "sorted, stable after clear+refill" true !ok

let test_heap_top_key_pop_exn () =
  let h = Heap.create () in
  Alcotest.check_raises "top_key empty" (Invalid_argument "Heap.top_key: empty heap")
    (fun () -> ignore (Heap.top_key h));
  Alcotest.check_raises "pop_exn empty" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h));
  List.iter (fun k -> Heap.add h ~key:k (10 * k)) [ 5; 2; 8 ];
  check "top_key" 2 (Heap.top_key h);
  check "pop_exn min value" 20 (Heap.pop_exn h);
  check "top_key after pop" 5 (Heap.top_key h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.add h ~key:k ()) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, ()) -> drain (k :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* The FIFO-among-equals guarantee, isolated: keys drawn from a tiny range
   so nearly every insertion ties, values are insertion indices, and the
   drain must equal a *stable* sort — any tie broken by sift accident
   instead of the seq stamp shows up as an index inversion.  This is the
   property the engine's determinism rests on. *)
let prop_heap_fifo_equal_keys =
  QCheck.Test.make ~name:"heap FIFO among equal keys" ~count:300
    QCheck.(list (int_bound 2))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.add h ~key:k i) keys;
      let rec drain acc =
        match Heap.pop h with
        | Some (k, i) -> drain ((k, i) :: acc)
        | None -> List.rev acc
      in
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i k -> (k, i)) keys)
      in
      drain [] = expected)

(* The engine's choice hook: pop every element tied at the minimum key,
   keep one, re-add the rest with the stamps they were popped with.  In
   whatever order they are re-added, the survivors must pop again in
   their original order under their original stamps, and the rest of the
   heap must drain exactly as if the kept element had never been there. *)
let prop_heap_restamped_ties =
  QCheck.Test.make ~name:"add_stamped re-added ties keep their order"
    ~count:300
    QCheck.(pair small_nat (list (int_bound 3)))
    (fun (pick, keys) ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.add h ~key:k i) keys;
      let stable =
        List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i k -> (k, i)) keys)
      in
      match stable with
      | [] -> Heap.is_empty h
      | (k0, _) :: _ ->
        let ties = ref [] in
        while (not (Heap.is_empty h)) && Heap.top_key h = k0 do
          let seq = Heap.top_seq h in
          ties := (seq, Heap.pop_exn h) :: !ties
        done;
        (* [!ties] is newest first: re-adding it reverses the pop order *)
        let kept = snd (List.nth !ties (pick mod List.length !ties)) in
        let survivors = List.filter (fun (_, v) -> v <> kept) !ties in
        List.iter (fun (seq, v) -> Heap.add_stamped h ~key:k0 ~seq v) survivors;
        let rec drain acc =
          if Heap.is_empty h then List.rev acc
          else
            let k = Heap.top_key h and seq = Heap.top_seq h in
            drain ((k, seq, Heap.pop_exn h) :: acc)
        in
        let drained = drain [] in
        List.filter_map
          (fun (k, seq, v) -> if k = k0 then Some (seq, v) else None)
          drained
        = List.rev survivors
        && List.map (fun (k, _, v) -> (k, v)) drained
           = List.filter (fun (_, v) -> v <> kept) stable)

let test_heap_add_stamped () =
  let h = Heap.create () in
  Alcotest.check_raises "top_seq empty"
    (Invalid_argument "Heap.top_seq: empty heap") (fun () ->
      ignore (Heap.top_seq h));
  (* explicit stamps override insertion order among equal keys *)
  Heap.add_stamped h ~key:5 ~seq:9 "late";
  Heap.add_stamped h ~key:5 ~seq:3 "early";
  check "top seq is the smaller stamp" 3 (Heap.top_seq h);
  Alcotest.(check string) "stamp order wins" "early" (Heap.pop_exn h);
  (* the internal counter advanced past every explicit stamp: a plain add
     at the same key cannot tie ambiguously, it pops after *)
  Heap.add h ~key:5 "plain";
  Alcotest.(check string) "explicit before implicit" "late" (Heap.pop_exn h);
  Alcotest.(check string) "implicit last" "plain" (Heap.pop_exn h)

(* Pop order is unaffected by an earlier clear: add one batch, clear, add a
   second batch — the drain must equal a stable sort of the second batch
   alone (keys ascending, insertion order among equal keys). *)
let prop_heap_clear_then_pop_order =
  QCheck.Test.make ~name:"heap pop order after clear" ~count:200
    QCheck.(pair (list small_int) (list small_int))
    (fun (first, second) ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.add h ~key:k (-1)) first;
      Heap.clear h;
      List.iteri (fun i k -> Heap.add h ~key:k i) second;
      let rec drain acc =
        match Heap.pop h with
        | Some (k, i) -> drain ((k, i) :: acc)
        | None -> List.rev acc
      in
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i k -> (k, i)) second)
      in
      drain [] = expected)

(* The engine's pattern, which the fill-then-drain properties above never
   reach: pop an event, schedule a few at or after its key, and now and
   then re-add a popped event under its own stamp, as the choice hook
   does.  Entries then sift up into a heap that pops have reshaped.
   Op 0 pops, 3 re-adds the latest popped entry, 1–2 add at now + d;
   every pop must be the minimum of a sorted model of (key, seq). *)
let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap interleaved add/add_stamped/pop_exn"
    ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 300) (pair (int_bound 3) (int_bound 7)))
    (fun ops ->
      let h = Heap.create ~hint:1 () in
      (* live (key, seq, value) triples, ascending *)
      let model = ref [] and next_seq = ref 0 and now = ref 0 in
      let popped = ref [] and ok = ref true in
      let insert e = model := List.merge compare [ e ] !model in
      let pop () =
        match !model with
        | [] -> ()
        | ((k, s, v) as e) :: rest ->
          model := rest;
          let hk = Heap.top_key h and hs = Heap.top_seq h in
          let hv = Heap.pop_exn h in
          ok := !ok && hk = k && hs = s && hv = v;
          now := k;
          popped := e :: !popped
      in
      List.iteri
        (fun i (op, d) ->
          match (op, !popped) with
          | 0, _ -> pop ()
          | 3, ((k, s, v) as e) :: rest ->
            popped := rest;
            Heap.add_stamped h ~key:k ~seq:s v;
            insert e;
            next_seq := max !next_seq (s + 1)
          | 3, [] -> ()
          | _ ->
            Heap.add h ~key:(!now + d) i;
            insert (!now + d, !next_seq, i);
            incr next_seq)
        ops;
      ok := !ok && Heap.length h = List.length !model;
      while !model <> [] do
        pop ()
      done;
      !ok && Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_copy_independent () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:6 in
  let b = Rng.split a in
  (* The split stream must not mirror the parent. *)
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 5)

let test_rng_int_distribution () =
  (* Coarse uniformity check: each of 8 buckets within 3x of expectation. *)
  let r = Rng.create ~seed:8 in
  let buckets = Array.make 8 0 in
  let n = 8000 in
  for _ = 1 to n do
    let i = Rng.int r 8 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket sane" true (c > 300 && c < 3000))
    buckets

(* ------------------------------------------------------------------ *)
(* Mask                                                               *)
(* ------------------------------------------------------------------ *)

let test_mask_basics () =
  let m = Mask.of_list [ 0; 3; 7 ] in
  Alcotest.(check bool) "mem 3" true (Mask.mem m 3);
  Alcotest.(check bool) "not mem 4" false (Mask.mem m 4);
  check "cardinal" 3 (Mask.cardinal m);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 3; 7 ] (Mask.to_list m)

let test_mask_full () =
  check "full 8 cardinal" 8 (Mask.cardinal (Mask.full 8));
  check "full 0" 0 (Mask.cardinal (Mask.full 0));
  Alcotest.check_raises "full too big" (Invalid_argument "Mask.full") (fun () ->
      ignore (Mask.full 63))

let test_mask_set_ops () =
  let a = Mask.of_list [ 1; 2; 3 ] and b = Mask.of_list [ 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Mask.to_list (Mask.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (Mask.to_list (Mask.inter a b));
  Alcotest.(check bool) "overlaps" true (Mask.overlaps a b);
  Alcotest.(check bool) "no overlap" false (Mask.overlaps a (Mask.of_list [ 5 ]))

let test_mask_bounds () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Mask: word index out of range") (fun () ->
      ignore (Mask.set Mask.empty (-1)));
  Alcotest.check_raises "too large"
    (Invalid_argument "Mask: word index out of range") (fun () ->
      ignore (Mask.set Mask.empty 62))

let test_mask_pp () =
  let s = Format.asprintf "%a" Mask.pp (Mask.of_list [ 0; 2 ]) in
  Alcotest.(check string) "render" "{0,2}" s

let prop_mask_roundtrip =
  let gen = QCheck.(list_of_size (Gen.int_bound 10) (int_bound 61)) in
  QCheck.Test.make ~name:"mask of_list/to_list roundtrip" ~count:200 gen (fun is ->
      let sorted = List.sort_uniq compare is in
      Mask.to_list (Mask.of_list is) = sorted)

let prop_mask_union_cardinal =
  let gen = QCheck.(pair (list (int_bound 61)) (list (int_bound 61))) in
  QCheck.Test.make ~name:"inclusion-exclusion" ~count:200 gen (fun (a, b) ->
      let ma = Mask.of_list a and mb = Mask.of_list b in
      Mask.cardinal (Mask.union ma mb) + Mask.cardinal (Mask.inter ma mb)
      = Mask.cardinal ma + Mask.cardinal mb)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

(* Writes go through handles; reads through the sorted listings. *)
let stat_incr s name = Stats.Handle.incr (Stats.counter s name)
let stat_add s name n = Stats.Handle.add (Stats.counter s name) n
let stat_max s name v = Stats.Handle.set_max (Stats.gauge s name) v
let stat_observe s name x = Stats.Handle.observe (Stats.sample s name) x
let gauge_value s name =
  Option.value ~default:0 (List.assoc_opt name (Stats.gauges s))
let summary s name = List.assoc_opt name (Stats.samples s)

let test_stats_counters () =
  let s = Stats.create () in
  check "unset is 0" 0 (Stats.get s "x");
  stat_incr s "x";
  stat_add s "x" 4;
  check "incr+add" 5 (Stats.get s "x");
  check "handle value" 5 (Stats.Handle.value (Stats.counter s "x"));
  stat_max s "m" 10;
  stat_max s "m" 3;
  check "set_max keeps max" 10 (gauge_value s "m");
  check "gauges live apart from counters" 0 (Stats.get s "m");
  Alcotest.(check (list string)) "gauge listing" [ "m" ]
    (List.map fst (Stats.gauges s))

let test_stats_samples () =
  let s = Stats.create () in
  stat_observe s "lat" 2.0;
  stat_observe s "lat" 4.0;
  (match summary s "lat" with
  | Some sm ->
    check "count" 2 sm.Stats.count;
    Alcotest.(check (float 1e-9)) "mean" 3.0 sm.Stats.mean;
    Alcotest.(check (float 1e-9)) "sum" 6.0
      (sm.Stats.mean *. float_of_int sm.Stats.count)
  | None -> Alcotest.fail "observed series must be listed");
  Alcotest.(check bool) "never observed, never listed" true
    (summary s "none" = None)

(* Regression: [Stats.pp] used to print counters and gauges but silently
   drop observe-samples, so --stats never showed e.g. cstar.phase_cycles. *)
let test_stats_pp_includes_samples () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let s = Stats.create () in
  stat_incr s "ctr";
  stat_observe s "lat" 2.0;
  stat_observe s "lat" 4.0;
  let out = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "counter line present" true (contains out "ctr = 1");
  Alcotest.(check bool) "sample line present" true
    (contains out "lat = count=2 mean=3 min=2 max=4 (sample)");
  match Stats.samples s with
  | [ (name, summary) ] ->
    Alcotest.(check string) "sample name" "lat" name;
    check "summary count" 2 summary.Stats.count;
    Alcotest.(check (float 1e-9)) "summary mean" 3.0 summary.Stats.mean;
    Alcotest.(check (float 1e-9)) "summary min" 2.0 summary.Stats.min;
    Alcotest.(check (float 1e-9)) "summary max" 4.0 summary.Stats.max
  | other -> Alcotest.failf "expected one sample, got %d" (List.length other)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  stat_add a "x" 2;
  stat_add b "x" 3;
  stat_add b "y" 1;
  stat_observe b "s" 5.0;
  stat_max a "peak" 7;
  stat_max b "peak" 4;
  Stats.merge_into ~dst:a b;
  check "merged x" 5 (Stats.get a "x");
  check "merged y" 1 (Stats.get a "y");
  check "merged sample" 1
    (match summary a "s" with Some sm -> sm.Stats.count | None -> 0);
  check "gauges merge by max, not sum" 7 (gauge_value a "peak");
  let c = Stats.create () in
  stat_max c "peak" 9;
  Stats.merge_into ~dst:a c;
  check "larger source gauge wins" 9 (gauge_value a "peak")

(* Regression: [merge_into ~dst:s s] must be a checked no-op.  A naive
   fold-over-src-into-dst would double every counter (and, iterating a
   hashtable while inserting into it, is formally undefined). *)
let test_stats_merge_self_noop () =
  let s = Stats.create () in
  stat_add s "x" 5;
  stat_max s "g" 7;
  stat_observe s "lat" 2.0;
  Stats.merge_into ~dst:s s;
  check "counter unchanged" 5 (Stats.get s "x");
  check "gauge unchanged" 7 (gauge_value s "g");
  check "sample count unchanged" 1
    (match summary s "lat" with Some sm -> sm.Stats.count | None -> 0)

(* ------------------------------------------------------------------ *)
(* Heap capacity hints / Pool                                          *)
(* ------------------------------------------------------------------ *)

(* Growth past the [?hint] capacity must preserve pop order across the
   resize boundary.  The hint is drawn small (1-8) so a few dozen inserts
   cross several doublings, and keys land on a tiny range so nearly every
   insertion ties — the drain must still be the stable sort by
   (key, insertion index), i.e. resizing may not perturb the FIFO stamp
   order the engine's determinism rests on. *)
let prop_heap_hint_resize_order =
  QCheck.Test.make ~name:"heap ?hint growth preserves pop order" ~count:300
    QCheck.(pair (int_range 1 8) (list (int_bound 3)))
    (fun (hint, keys) ->
      let h = Heap.create ~hint () in
      List.iteri (fun i k -> Heap.add h ~key:k i) keys;
      let rec drain acc =
        match Heap.pop h with
        | Some kv -> drain (kv :: acc)
        | None -> List.rev acc
      in
      drain []
      = List.stable_sort
          (fun (k1, _) (k2, _) -> compare (k1 : int) k2)
          (List.mapi (fun i k -> (k, i)) keys))

(* Pool correctness under random acquire/release interleavings, with
   debug poisoning on: an acquire must never hand back a record that is
   still live (physical aliasing), a live record must never carry the
   poison value (use-after-release would), and the live count must track
   exactly. *)
let prop_pool_no_aliasing =
  QCheck.Test.make ~name:"pool acquire/release never aliases live records"
    ~count:300
    QCheck.(list bool)
    (fun ops ->
      let saved = !Pool.debug in
      Pool.debug := true;
      Fun.protect
        ~finally:(fun () -> Pool.debug := saved)
        (fun () ->
          let p =
            Pool.create ~poison:(fun r -> r := -1) ~make:(fun () -> ref 0) ()
          in
          let live = ref [] in
          let next = ref 0 in
          List.iter
            (fun acquire ->
              if acquire || !live = [] then begin
                let r = Pool.acquire p in
                if List.exists (fun l -> l == r) !live then
                  QCheck.Test.fail_report "acquired a still-live record";
                incr next;
                r := !next;
                live := r :: !live
              end
              else
                match !live with
                | r :: rest ->
                  if !r = -1 then
                    QCheck.Test.fail_report "live record was poisoned";
                  Pool.release p r;
                  live := rest
                | [] -> ())
            ops;
          let vals = List.map (fun r -> !r) !live in
          List.length (List.sort_uniq compare vals) = List.length vals
          && Pool.live p = List.length !live))

let test_pool_double_release_detected () =
  let saved = !Pool.debug in
  Pool.debug := true;
  Fun.protect
    ~finally:(fun () -> Pool.debug := saved)
    (fun () ->
      let p = Pool.create ~poison:(fun r -> r := -1) ~make:(fun () -> ref 0) () in
      let r = Pool.acquire p in
      Pool.release p r;
      Alcotest.(check int) "poisoned on release" (-1) !r;
      Alcotest.check_raises "double release"
        (Invalid_argument "Pool.release: value is already on the free list")
        (fun () -> Pool.release p r))

let test_pool_reuse_and_counts () =
  let p = Pool.create ~make:(fun () -> ref 0) () in
  let a = Pool.acquire p in
  Pool.release p a;
  let b = Pool.acquire p in
  Alcotest.(check bool) "free-list reuses the record" true (a == b);
  Alcotest.(check int) "created once" 1 (Pool.created p);
  Alcotest.(check int) "one live" 1 (Pool.live p);
  ignore (Pool.acquire p);
  Alcotest.(check int) "free list empty: the next acquire constructs" 2
    (Pool.created p)

(* Handles register lazily: resolving one lists nothing until its first
   write, so --stats and the counter fingerprints name exactly what was
   written; every handle for a name, resolved before or after that
   write, shares one cell. *)
let test_stats_handles_register_lazily () =
  let s = Stats.create () in
  let c1 = Stats.counter s "c" and g = Stats.gauge s "g" in
  ignore (Stats.sample s "lat");
  let listed () =
    List.map fst (Stats.counters s) @ List.map fst (Stats.gauges s)
    @ List.map fst (Stats.samples s)
  in
  Alcotest.(check (list string)) "resolved only: nothing listed" [] (listed ());
  let empty = Stats.create () in
  Stats.merge_into ~dst:empty s;
  Alcotest.(check (list string)) "merging resolved-only names adds none" []
    (List.map fst (Stats.counters empty) @ List.map fst (Stats.gauges empty));
  let c2 = Stats.counter s "c" in
  Stats.Handle.incr c1;
  Stats.Handle.add c2 2;
  Stats.Handle.incr (Stats.counter s "c");
  Stats.Handle.set_max g 4;
  check "one cell per name" 4 (Stats.get s "c");
  check "early handle sees later writes" 4 (Stats.Handle.value c1);
  Alcotest.(check (list string)) "written names listed" [ "c"; "g" ] (listed ())

(* A name is listed from its first write, whatever value that write
   leaves: a counter taken back to 0, an [add 0] and a gauge raised to 0
   are all listed (as [lcm.barrier_wait_cycles = 0] is on a run whose
   barriers never wait), and a merge carries them. *)
let test_stats_zero_write_listed () =
  let s = Stats.create () in
  let back = Stats.counter s "back" in
  Stats.Handle.incr back;
  Stats.Handle.add back (-1);
  stat_add s "add0" 0;
  stat_max s "g0" 0;
  ignore (Stats.counter s "resolved");
  ignore (Stats.gauge s "resolved-gauge");
  let pairs = Alcotest.(list (pair string int)) in
  let check_listed what r =
    Alcotest.check pairs (what ^ ": counters") [ ("add0", 0); ("back", 0) ]
      (Stats.counters r);
    Alcotest.check pairs (what ^ ": gauges") [ ("g0", 0) ] (Stats.gauges r)
  in
  check_listed "written zeros" s;
  let empty = Stats.create () in
  Stats.merge_into ~dst:empty s;
  check_listed "merged into an empty registry" empty

let test_stats_counters_sorted () =
  let s = Stats.create () in
  stat_incr s "b";
  stat_incr s "a";
  Alcotest.(check (list string)) "sorted names" [ "a"; "b" ]
    (List.map fst (Stats.counters s))

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                           *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let out =
    Tablefmt.render ~header:[ "name"; "v" ] [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    List.exists (fun l -> l = "| name  |  v |") lines)

let test_table_explicit_alignment () =
  let out =
    Tablefmt.render
      ~align:[ Tablefmt.Right; Tablefmt.Left ]
      ~header:[ "n"; "name" ]
      [ [ "1"; "a" ]; [ "22"; "bb" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "right-aligned first column" true
    (List.exists (fun l -> l = "|  1 | a    |") lines)

let test_table_empty_rows () =
  let out = Tablefmt.render ~header:[ "a"; "b" ] [] in
  Alcotest.(check bool) "renders header only" true (String.length out > 0)

let test_stats_sample_min_max_defaults () =
  let s = Stats.create () in
  Alcotest.(check bool) "empty series not listed" true (summary s "x" = None);
  stat_observe s "x" (-3.5);
  match summary s "x" with
  | Some sm ->
    Alcotest.(check (float 0.0)) "negative mean" (-3.5) sm.Stats.mean;
    Alcotest.(check (float 0.0)) "negative min" (-3.5) sm.Stats.min;
    Alcotest.(check (float 0.0)) "negative max" (-3.5) sm.Stats.max
  | None -> Alcotest.fail "observed series must be listed"

let test_heap_many_duplicate_keys () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.add h ~key:7 i
  done;
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "stable across 100 equal keys"
    (List.init 100 Fun.id) (List.rev !out)

let test_table_ragged_rows () =
  let out = Tablefmt.render ~header:[ "a"; "b"; "c" ] [ [ "1" ]; [ "1"; "2"; "3"; "4" ] ] in
  (* Must not raise; all rows padded/truncated to 3 columns. *)
  List.iter
    (fun l ->
      if String.length l > 0 && l.[0] = '|' then
        Alcotest.(check int) "3 separators"
          4
          (List.length (String.split_on_char '|' l) - 1))
    (String.split_on_char '\n' out)

let suite =
  [
    ("heap empty", `Quick, test_heap_empty);
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap clear and reuse", `Quick, test_heap_clear_and_reuse);
    ("heap clear keeps capacity", `Quick, test_heap_clear_keeps_working_at_capacity);
    ("heap top_key/pop_exn", `Quick, test_heap_top_key_pop_exn);
    ("heap add_stamped", `Quick, test_heap_add_stamped);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng copy independent", `Quick, test_rng_copy_independent);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng distribution", `Quick, test_rng_int_distribution);
    ("mask basics", `Quick, test_mask_basics);
    ("mask full", `Quick, test_mask_full);
    ("mask set ops", `Quick, test_mask_set_ops);
    ("mask bounds", `Quick, test_mask_bounds);
    ("mask pp", `Quick, test_mask_pp);
    ("stats counters", `Quick, test_stats_counters);
    ("stats samples", `Quick, test_stats_samples);
    ("stats pp includes samples", `Quick, test_stats_pp_includes_samples);
    ("stats merge", `Quick, test_stats_merge);
    ("stats merge self no-op", `Quick, test_stats_merge_self_noop);
    ("stats sorted", `Quick, test_stats_counters_sorted);
    ("stats handles register lazily", `Quick, test_stats_handles_register_lazily);
    ("table render", `Quick, test_table_render);
    ("table ragged", `Quick, test_table_ragged_rows);
    ("table explicit align", `Quick, test_table_explicit_alignment);
    ("table empty rows", `Quick, test_table_empty_rows);
    ("stats sample defaults", `Quick, test_stats_sample_min_max_defaults);
    ("heap 100 equal keys", `Quick, test_heap_many_duplicate_keys);
    ("pool double release detected", `Quick, test_pool_double_release_detected);
    ("pool reuse and counts", `Quick, test_pool_reuse_and_counts);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_heap_sorted;
        prop_heap_fifo_equal_keys;
        prop_heap_restamped_ties;
        prop_heap_clear_then_pop_order;
        prop_heap_interleaved;
        prop_heap_hint_resize_order;
        prop_pool_no_aliasing;
        prop_mask_roundtrip;
        prop_mask_union_cardinal;
      ]
  @ [ ("stats: a write that leaves zero stays listed", `Quick,
       test_stats_zero_write_listed) ]

let () = Alcotest.run "lcm_util" [ ("util", suite) ]
