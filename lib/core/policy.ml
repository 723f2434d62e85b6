type write_grant = Exclusive | Lcm_copy

type directory = {
  parallel_write_grant : write_grant;
  local_clean_copies : bool;
  update_on_reconcile : bool;
}

type snoop = { exclusive_state : bool; owned_state : bool }

type family = Directory of directory | Snoop of snoop

type t = {
  name : string;
  label : string;
  aliases : string list;
  summary : string;
  family : family;
}

let stache =
  {
    name = "stache";
    label = "Stache+copy";
    aliases = [ "copy" ];
    summary = "directory; sequentially-consistent single-writer (baseline)";
    family =
      Directory
        {
          parallel_write_grant = Exclusive;
          local_clean_copies = false;
          update_on_reconcile = false;
        };
  }

let lcm_scc =
  {
    name = "lcm-scc";
    label = "LCM-scc";
    aliases = [ "scc" ];
    summary = "directory; LCM, single clean copy at the home";
    family =
      Directory
        {
          parallel_write_grant = Lcm_copy;
          local_clean_copies = false;
          update_on_reconcile = false;
        };
  }

let lcm_mcc =
  {
    name = "lcm-mcc";
    label = "LCM-mcc";
    aliases = [ "mcc"; "lcm" ];
    summary = "directory; LCM, clean copies on every caching node";
    family =
      Directory
        {
          parallel_write_grant = Lcm_copy;
          local_clean_copies = true;
          update_on_reconcile = false;
        };
  }

let lcm_mcc_update =
  {
    name = "lcm-mcc-update";
    label = "LCM-mcc-update";
    aliases = [ "mcc-update"; "update" ];
    summary = "directory; LCM-mcc with update-based reconciliation";
    family =
      Directory
        {
          parallel_write_grant = Lcm_copy;
          local_clean_copies = true;
          update_on_reconcile = true;
        };
  }

let msi =
  {
    name = "msi";
    label = "MSI";
    aliases = [];
    summary = "snooping bus; Modified/Shared/Invalid";
    family = Snoop { exclusive_state = false; owned_state = false };
  }

let mesi =
  {
    name = "mesi";
    label = "MESI";
    aliases = [];
    summary = "snooping bus; MSI plus a silent-upgrade Exclusive state";
    family = Snoop { exclusive_state = true; owned_state = false };
  }

let moesi =
  {
    name = "moesi";
    label = "MOESI";
    aliases = [];
    summary = "snooping bus; MESI plus an Owned dirty-sharing state";
    family = Snoop { exclusive_state = true; owned_state = true };
  }

(* ------------------------------------------------------------------ *)
(* The registry: the one statement of which memory systems exist and   *)
(* what they are called.  Every other list of policies (the stress     *)
(* harness, the harness Config systems, the lcm_sim CLI choices) and   *)
(* every parser derives from [policies].                               *)
(* ------------------------------------------------------------------ *)

let policies = [ stache; lcm_scc; lcm_mcc; lcm_mcc_update; msi; mesi; moesi ]

let spellings_of p =
  let label = String.lowercase_ascii p.label in
  p.name :: (if label = p.name then p.aliases else label :: p.aliases)

let spellings =
  List.map (fun p -> String.concat "|" (spellings_of p)) policies

let of_string s =
  let key = String.lowercase_ascii (String.trim s) in
  match List.find_opt (fun p -> List.mem key (spellings_of p)) policies with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown policy %S (expected one of: %s)" key
         (String.concat ", " spellings))

let is_lcm p =
  match p.family with
  | Directory d -> d.parallel_write_grant = Lcm_copy
  | Snoop _ -> false
