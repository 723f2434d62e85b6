module Trace = Lcm_sim.Trace

(* ------------------------------------------------------------------ *)
(* JSON writing                                                        *)
(* ------------------------------------------------------------------ *)

(* One Chrome trace_event object.  [ph] is the phase letter: "X" complete
   (needs [dur]), "i" instant (needs scope [s]), "C" counter. *)
let event_obj ~name ~ph ~ts ~tid ?dur ?scope ~args () =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%d"
       (Report.Json.escape name) ph tid ts);
  (match dur with
  | Some d -> Buffer.add_string buf (Printf.sprintf ",\"dur\":%d" d)
  | None -> ());
  (match scope with
  | Some s -> Buffer.add_string buf (Printf.sprintf ",\"s\":\"%s\"" s)
  | None -> ());
  (match args with
  | [] -> ()
  | args ->
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":%d" (Report.Json.escape k) v))
      args;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}';
  Buffer.contents buf

let instant ~name ~ts ~tid ~args =
  event_obj ~name ~ph:"i" ~ts ~tid ~scope:"t" ~args ()

let render_event (ts, ev) =
  match ev with
  | Trace.Msg_send { tag; src; dst; words } ->
    instant ~name:("send " ^ tag) ~ts ~tid:src
      ~args:[ ("dst", dst); ("words", words) ]
  | Trace.Msg_recv { tag; src; dst; words } ->
    instant ~name:("recv " ^ tag) ~ts ~tid:dst
      ~args:[ ("src", src); ("words", words) ]
  | Trace.Msg_drop { tag; src; dst; words } ->
    instant ~name:("drop " ^ tag) ~ts ~tid:src
      ~args:[ ("dst", dst); ("words", words) ]
  | Trace.Msg_retx { tag; src; dst; words; attempt } ->
    instant ~name:("retx " ^ tag) ~ts ~tid:src
      ~args:[ ("dst", dst); ("words", words); ("attempt", attempt) ]
  | Trace.Fault { kind; node; addr; block } ->
    let name =
      match kind with
      | Trace.Read -> "read fault"
      | Trace.Write -> "write fault"
    in
    instant ~name ~ts ~tid:node ~args:[ ("addr", addr); ("block", block) ]
  | Trace.Directive { node; name } ->
    instant ~name:("directive " ^ name) ~ts ~tid:node ~args:[]
  | Trace.Barrier_enter { node } ->
    instant ~name:"barrier enter" ~ts ~tid:node ~args:[]
  | Trace.Barrier_release { nnodes } ->
    instant ~name:"barrier release" ~ts ~tid:0 ~args:[ ("nnodes", nnodes) ]
  | Trace.Epoch_advance { epoch } ->
    event_obj ~name:"epoch" ~ph:"C" ~ts ~tid:0 ~args:[ ("epoch", epoch) ] ()
  | Trace.Handler { node; finish } ->
    event_obj ~name:"handler" ~ph:"X" ~ts ~tid:node ~dur:(max 0 (finish - ts))
      ~args:[] ()
  | Trace.Note s -> instant ~name:s ~ts ~tid:0 ~args:[]

let to_chrome_json events =
  (* Node clocks run ahead of the engine, so ring order is not globally
     time-ordered; viewers want monotone ts.  Stable sort keeps the
     emission order of equal-time events. *)
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) events in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (render_event ev))
    sorted;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents buf

let export_file ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json events))

(* ------------------------------------------------------------------ *)
(* JSON reading — a minimal recursive-descent parser, enough to         *)
(* validate what we emit (the container has no JSON library).           *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let unescape c =
      match c with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' ->
        if !pos + 4 > n then fail "truncated \\u escape";
        let hex = String.sub s !pos 4 in
        pos := !pos + 4;
        let code =
          match int_of_string_opt ("0x" ^ hex) with
          | Some code -> code
          | None -> fail "bad \\u escape"
        in
        (* ASCII range only; we never emit beyond it *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else Buffer.add_char buf '?'
      | _ -> fail "unknown escape"
    in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          unescape c);
        go ()
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Bad msg -> Error msg

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate_chrome text =
  match parse text with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok doc -> (
    match member "traceEvents" doc with
    | None -> Error "missing \"traceEvents\" key"
    | Some (Arr []) -> Error "empty traceEvents array"
    | Some (Arr events) ->
      let bad = ref None in
      let last_ts = ref min_int in
      List.iteri
        (fun i ev ->
          if !bad = None then
            match (member "name" ev, member "ph" ev, member "ts" ev) with
            | Some (Str _), Some (Str _), Some (Num ts) ->
              if ts < float_of_int !last_ts then
                bad :=
                  Some (Printf.sprintf "event %d: timestamps not monotone" i)
              else last_ts := int_of_float ts
            | _ ->
              bad :=
                Some (Printf.sprintf "event %d: missing name/ph/ts field" i))
        events;
      (match !bad with
      | Some e -> Error e
      | None -> Ok (List.length events))
    | Some _ -> Error "\"traceEvents\" is not an array")

let validate_file path =
  match
    (* A directory opens, but reading its length fails with a message
       that names nothing. *)
    if Sys.file_exists path && Sys.is_directory path then
      raise (Sys_error (path ^ ": is a directory"));
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text ->
    Result.map_error (Printf.sprintf "%s: %s" path) (validate_chrome text)
