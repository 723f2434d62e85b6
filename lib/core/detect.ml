type setting = Off | At_reconcile | Strict

type conflict = { block : int; words : Lcm_util.Mask.t; writer : int }

type race = { block : int; readers : int list }

let pp_conflict ppf (c : conflict) =
  Format.fprintf ppf "write/write conflict: block %d words %a (writer %d)" c.block
    Lcm_util.Mask.pp c.words c.writer

let pp_race ppf (r : race) =
  Format.fprintf ppf "read/write race: block %d readers [%s]" r.block
    (String.concat ";" (List.map string_of_int r.readers))
