type t = {
  name : string;
  cycles : int;
  checksum : float;
  faults : int;
  remote_fetches : int;
  clean_copies : int;
  messages : int;
  counters : (string * int) list;
  gauges : (string * int) list;
  samples : (string * Lcm_util.Stats.summary) list;
}

let make ~name ~cycles ~checksum ~stats =
  let get = Lcm_util.Stats.get stats in
  {
    name;
    cycles;
    checksum;
    faults = get "fault.read" + get "fault.write";
    remote_fetches = get "proto.fetch_remote";
    (* the paper's Table-1 notion counts every clean-copy (re)creation,
       including mcc's per-re-mark snapshot refreshes *)
    clean_copies = get "lcm.clean_copies" + get "lcm.snapshot_refreshes";
    messages = get "net.msgs";
    counters = Lcm_util.Stats.counters stats;
    gauges = Lcm_util.Stats.gauges stats;
    samples = Lcm_util.Stats.samples stats;
  }

let measure rt ~name f =
  let started = Lcm_cstar.Runtime.elapsed rt in
  let checksum = f () in
  make ~name
    ~cycles:(Lcm_cstar.Runtime.elapsed rt - started)
    ~checksum ~stats:(Lcm_cstar.Runtime.stats rt)

let message_breakdown t =
  List.filter_map
    (fun (name, v) ->
      if String.length name > 4 && String.sub name 0 4 = "msg." then
        Some (String.sub name 4 (String.length name - 4), v)
      else None)
    t.counters
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let close a b =
  let denom = max 1.0 (max (abs_float a.checksum) (abs_float b.checksum)) in
  abs_float (a.checksum -. b.checksum) /. denom <= 1e-4

let pp ppf t =
  Format.fprintf ppf
    "%s: %d cycles, checksum %.6g, %d faults, %d remote fetches, %d clean \
     copies, %d msgs"
    t.name t.cycles t.checksum t.faults t.remote_fetches t.clean_copies
    t.messages
