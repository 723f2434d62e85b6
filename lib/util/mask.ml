type t = int

let max_words = 62

let empty = 0

let full n =
  if n < 0 || n > max_words then invalid_arg "Mask.full";
  if n = 0 then 0 else (1 lsl n) - 1

let check i =
  if i < 0 || i >= max_words then invalid_arg "Mask: word index out of range"

let set m i =
  check i;
  m lor (1 lsl i)

let mem m i =
  check i;
  m land (1 lsl i) <> 0

let union a b = a lor b
let inter a b = a land b

let is_empty m = m = 0

let overlaps a b = a land b <> 0

let cardinal m =
  let rec count acc m = if m = 0 then acc else count (acc + (m land 1)) (m lsr 1) in
  count 0 m

let iter m f =
  (* Shift-based: terminates at the highest set bit instead of walking all
     [max_words] positions — masks cover one block, so usually < 8 bits. *)
  let rec go m i =
    if m <> 0 then begin
      if m land 1 <> 0 then f i;
      go (m lsr 1) (i + 1)
    end
  in
  go m 0

let fold m ~init ~f =
  let acc = ref init in
  iter m (fun i -> acc := f !acc i);
  !acc

let to_list m = List.rev (fold m ~init:[] ~f:(fun acc i -> i :: acc))

let of_list is = List.fold_left set empty is

let pp ppf m =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (to_list m)))
