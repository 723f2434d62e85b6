type t = Invalid | Read_only | Writable | Lcm_modified

let readable = function
  | Read_only | Writable | Lcm_modified -> true
  | Invalid -> false

let writable = function
  | Writable | Lcm_modified -> true
  | Invalid | Read_only -> false

let to_string = function
  | Invalid -> "Invalid"
  | Read_only -> "ReadOnly"
  | Writable -> "Writable"
  | Lcm_modified -> "LcmModified"
