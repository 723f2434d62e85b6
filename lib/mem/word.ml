type t = int

let zero = 0

let of_float f = Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF

let to_float w = Int32.float_of_bits (Int32.of_int (w land 0xFFFFFFFF))

let of_int n = n land 0xFFFFFFFF

let to_int w =
  let w = w land 0xFFFFFFFF in
  if w land 0x80000000 <> 0 then w - (1 lsl 32) else w

let float_add a b = of_float (to_float a +. to_float b)

let float_min a b = of_float (Float.min (to_float a) (to_float b))

let float_max a b = of_float (Float.max (to_float a) (to_float b))
