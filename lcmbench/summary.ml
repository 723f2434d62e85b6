(* Order statistics, the origin-through least-squares fit of the layer
   ledger, and the speed-claim rule — everything the benchmark reports
   about a set of repeated measurements. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let nonempty fn xs = if xs = [] then invalid_arg ("Summary." ^ fn ^ ": no values")

(* Linear interpolation between closest ranks (p in [0, 100]). *)
let percentile p xs =
  nonempty "percentile" xs;
  let a = sorted xs in
  let n = Array.length a in
  let r = p /. 100. *. float_of_int (n - 1) in
  let i = truncate r in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 50. xs

(* First and third quartile exactly as Python's
   [statistics.quantiles xs ~n:4] computes them (the "exclusive" method,
   clamped ranks), so a spread printed here is the one a reader recomputes
   from the same values.  One value is its own quartiles. *)
let quartiles xs =
  nonempty "quartiles" xs;
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median — the run-to-run spread a
   metric's regression bound is compared against. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

(* Least squares through the origin, y = slope * x, as bechamel fits time
   against run count: the slope is the per-operation cost and [r2] (about
   the mean of y) says how linear the batches were. *)
let ols xs ys =
  let sxy = List.fold_left2 (fun s x y -> s +. (x *. y)) 0. xs ys in
  let sxx = List.fold_left (fun s x -> s +. (x *. x)) 0. xs in
  let slope = sxy /. sxx in
  let n = float_of_int (List.length ys) in
  let mean = List.fold_left ( +. ) 0. ys /. n in
  let ss_res = List.fold_left2 (fun s x y -> s +. ((y -. (slope *. x)) ** 2.)) 0. xs ys in
  let ss_tot = List.fold_left (fun s y -> s +. ((y -. mean) ** 2.)) 0. ys in
  (slope, if ss_tot = 0. then 1. else 1. -. (ss_res /. ss_tot))

(* ------------------------------------------------------------------ *)
(* The speed-claim rule                                                *)
(* ------------------------------------------------------------------ *)

type better = Lower | Higher

type verdict =
  | Better
      (** a gain: at least ten pairs, the change wins 9/10 of them, and the
          medians differ by more than the parent's interquartile range *)
  | Regression  (** the change's median is worse by more than the bound *)
  | No_regression
  | Unresolved  (** the parent's own spread exceeds the bound *)

let verdict_name = function
  | Better -> "better"
  | Regression -> "REGRESSION"
  | No_regression -> "no regression"
  | Unresolved -> "unresolved"

let improves better ~over x =
  match better with Lower -> x < over | Higher -> x > over

(* [parent] and [change] hold one value per pair, index-aligned.  Ties
   count for neither side. *)
let win_frac better ~parent ~change =
  let wins =
    List.fold_left2
      (fun n p c -> if improves better ~over:p c then n + 1 else n)
      0 parent change
  in
  float_of_int wins /. float_of_int (List.length parent)

let verdict better ~bound ~parent ~change =
  let mp = median parent and mc = median change in
  let q1, q3 = quartiles parent in
  let worse_by =
    (match better with Lower -> mc -. mp | Higher -> mp -. mc) /. Float.abs mp
  in
  let every_change_better =
    List.for_all
      (fun c -> List.for_all (fun p -> improves better ~over:p c) parent)
      change
  in
  if
    List.length parent >= 10
    && win_frac better ~parent ~change >= 0.9
    && improves better ~over:mp mc
    && Float.abs (mc -. mp) > q3 -. q1
  then Better
  else if spread parent > bound && not every_change_better then Unresolved
  else if worse_by > bound then Regression
  else No_regression
