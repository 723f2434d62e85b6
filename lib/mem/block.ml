type t = Word.t array

let make ~words = Array.make words Word.zero

let copy = Array.copy

let blit ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Block.blit: length mismatch";
  Array.blit src 0 dst 0 (Array.length src)

let equal a b = a = b

let merge_masked ~src ~dst ~mask =
  Lcm_util.Mask.iter mask (fun i -> dst.(i) <- src.(i))
