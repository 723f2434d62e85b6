type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finaliser (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take the high bits (better distributed) and reduce modulo bound.  The
     modulo bias is negligible for the bounds used in this code base. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let float t bound =
  (* 53 random bits into [0,1). *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L
