type idx = Self | Off of int

type expr =
  | Const of float
  | Ivar
  | Jvar
  | Read of string * idx * idx
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Neg of expr
  | Abs of expr
  | Min of expr * expr
  | Max of expr * expr

type icmp = Lt | Le | Eq | Ne | Ge | Gt

type iatom =
  | I
  | J
  | Rows
  | Cols
  | IConst of int
  | IAddc of iatom * int
  | IAdd of iatom * iatom
  | IMod of iatom * int

type cond =
  | ICmp of icmp * iatom * iatom
  | FCmp of icmp * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond
  | Interior

type stmt =
  | Assign of string * idx * idx * expr
  | Reduce of string * expr
  | If of cond * stmt list * stmt list
  | Work of int

type t = { name : string; body : stmt list }

(* ------------------------------------------------------------------ *)
(* Footprints                                                          *)
(* ------------------------------------------------------------------ *)

module SSet = Set.Make (String)

type access = { agg : string; di : idx; dj : idx }

let rec expr_reads acc = function
  | Const _ | Ivar | Jvar -> acc
  | Read (agg, di, dj) -> { agg; di; dj } :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b) | Max (a, b) ->
    expr_reads (expr_reads acc a) b
  | Neg a | Abs a -> expr_reads acc a

let rec cond_reads acc = function
  | ICmp _ | Interior -> acc
  | FCmp (_, a, b) -> expr_reads (expr_reads acc a) b
  | And (a, b) | Or (a, b) -> cond_reads (cond_reads acc a) b
  | Not a -> cond_reads acc a

let rec stmt_accesses (reads, writes) = function
  | Assign (agg, di, dj, e) -> (expr_reads reads e, { agg; di; dj } :: writes)
  | Reduce (_, e) -> (expr_reads reads e, writes)
  | Work _ -> (reads, writes)
  | If (c, t, f) ->
    let acc = (cond_reads reads c, writes) in
    let acc = List.fold_left stmt_accesses acc t in
    List.fold_left stmt_accesses acc f

let accesses body = List.fold_left stmt_accesses ([], []) body

let rec stmt_reducers acc = function
  | Reduce (name, _) -> SSet.add name acc
  | Assign _ | Work _ -> acc
  | If (_, t, f) ->
    List.fold_left stmt_reducers (List.fold_left stmt_reducers acc t) f

let is_self = function Self | Off 0 -> true | Off _ -> false

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

type decision = {
  marked_aggs : string list;
  unmarked_aggs : string list;
  flush_between : bool;
  precopied : string list;
}

(* [definitely_assigns agg stmts]: every invocation surely writes its own
   element of [agg] (needed to elide the conservative pre-copy under
   explicit copying). *)
let rec definitely_assigns agg stmts =
  List.exists
    (function
      | Assign (a, di, dj, _) -> a = agg && is_self di && is_self dj
      | If (_, t, f) -> definitely_assigns agg t && definitely_assigns agg f
      | Reduce _ | Work _ -> false)
    stmts

let analyze { body; _ } =
  let reads, writes = accesses body in
  let written = List.fold_left (fun s a -> SSet.add a.agg s) SSet.empty writes in
  (* A written aggregate conflicts when some invocation may touch another
     invocation's written element: any non-self read or write of it. *)
  let conflicting agg =
    List.exists (fun a -> a.agg = agg && not (is_self a.di && is_self a.dj)) reads
    || List.exists
         (fun a -> a.agg = agg && not (is_self a.di && is_self a.dj))
         writes
  in
  let marked, unmarked = SSet.partition conflicting written in
  (* An invocation can observe a same-node predecessor's write only if the
     kernel reads an aggregate it also writes. *)
  let flush_between = List.exists (fun a -> SSet.mem a.agg written) reads in
  (* Explicit copying: a double-buffered aggregate whose elements are not
     all surely written needs its unwritten values moved to the new buffer
     by a conservative pre-copy phase. *)
  let precopied = SSet.filter (fun a -> not (definitely_assigns a body)) marked in
  {
    marked_aggs = SSet.elements marked;
    unmarked_aggs = SSet.elements unmarked;
    flush_between;
    precopied = SSet.elements precopied;
  }

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let validate { body; name } =
  let rec check_expr = function
    | Div (_, Const 0.0) -> Error (name ^ ": division by constant zero")
    | Div (a, b) | Add (a, b) | Sub (a, b) | Mul (a, b) | Min (a, b) | Max (a, b) -> (
      match check_expr a with Ok () -> check_expr b | e -> e)
    | Neg a | Abs a -> check_expr a
    | Const _ | Ivar | Jvar | Read _ -> Ok ()
  in
  let rec check_stmt = function
    | Assign (_, _, _, e) | Reduce (_, e) -> check_expr e
    | Work n -> if n < 0 then Error (name ^ ": negative work") else Ok ()
    | If (_, t, f) -> check_stmts (t @ f)
  and check_stmts = function
    | [] -> Ok ()
    | s :: rest -> ( match check_stmt s with Ok () -> check_stmts rest | e -> e)
  in
  check_stmts body

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type env = {
  aggs : (string * Agg.t) list;
  reducers : (string * Reducer.t) list;
}

let lookup_agg env name =
  match List.assoc_opt name env.aggs with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Kernel: unbound aggregate %S" name)

let lookup_reducer env name =
  match List.assoc_opt name env.reducers with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Kernel: unbound reduction variable %S" name)

let coord base = function Self -> base | Off d -> base + d

(* Clamped aggregate access: out-of-range offsets read/write the border
   element, so kernels can omit border guards when they do not care. *)
let clamp v lo hi = if v < lo then lo else if v > hi then hi else v

let compile rt ({ body; _ } as k) env ~over =
  (match validate k with Ok () -> () | Error e -> invalid_arg e);
  let d = analyze k in
  let over_agg = lookup_agg env over in
  let rows = Agg.rows over_agg and cols = Agg.cols over_agg in
  (* Pre-resolve names once, at "compile time". *)
  let agg name = lookup_agg env name in
  let lcm = Runtime.strategy rt = Runtime.Lcm_directives in
  let rec ieval ~i ~j = function
    | I -> i
    | J -> j
    | Rows -> rows
    | Cols -> cols
    | IConst n -> n
    | IAddc (a, n) -> ieval ~i ~j a + n
    | IAdd (a, b) -> ieval ~i ~j a + ieval ~i ~j b
    | IMod (a, n) ->
      if n <= 0 then invalid_arg "Kernel: IMod by non-positive constant";
      ((ieval ~i ~j a mod n) + n) mod n
  in
  let cmp_int op (a : int) b =
    match op with
    | Lt -> a < b
    | Le -> a <= b
    | Eq -> a = b
    | Ne -> a <> b
    | Ge -> a >= b
    | Gt -> a > b
  in
  let cmp_float op (a : float) b =
    match op with
    | Lt -> a < b
    | Le -> a <= b
    | Eq -> a = b
    | Ne -> a <> b
    | Ge -> a >= b
    | Gt -> a > b
  in
  let read name di dj ~i ~j =
    let a = agg name in
    let ri = clamp (coord i di) 0 (Agg.rows a - 1) in
    let rj = clamp (coord j dj) 0 (Agg.cols a - 1) in
    Agg.getf a ri rj
  in
  let rec eval ~i ~j = function
    | Const c -> c
    | Ivar -> float_of_int i
    | Jvar -> float_of_int j
    | Read (name, di, dj) -> read name di dj ~i ~j
    | Add (a, b) -> eval ~i ~j a +. eval ~i ~j b
    | Sub (a, b) -> eval ~i ~j a -. eval ~i ~j b
    | Mul (a, b) -> eval ~i ~j a *. eval ~i ~j b
    | Div (a, b) -> eval ~i ~j a /. eval ~i ~j b
    | Neg a -> -.eval ~i ~j a
    | Abs a -> abs_float (eval ~i ~j a)
    | Min (a, b) -> Float.min (eval ~i ~j a) (eval ~i ~j b)
    | Max (a, b) -> Float.max (eval ~i ~j a) (eval ~i ~j b)
  in
  let rec test ~i ~j = function
    | ICmp (op, a, b) -> cmp_int op (ieval ~i ~j a) (ieval ~i ~j b)
    | FCmp (op, a, b) -> cmp_float op (eval ~i ~j a) (eval ~i ~j b)
    | And (a, b) -> test ~i ~j a && test ~i ~j b
    | Or (a, b) -> test ~i ~j a || test ~i ~j b
    | Not a -> not (test ~i ~j a)
    | Interior -> i > 0 && j > 0 && i < rows - 1 && j < cols - 1
  in
  let rec exec ~ctx ~i ~j = function
    | Work n -> Lcm_tempest.Memeff.work n
    | Assign (name, di, dj, e) ->
      let a = agg name in
      let wi = clamp (coord i di) 0 (Agg.rows a - 1) in
      let wj = clamp (coord j dj) 0 (Agg.cols a - 1) in
      let v = eval ~i ~j e in
      (* The compiler — not the aggregate accessor — decides marking and
         buffering.  Conflicting writes go to the write buffer (the back
         copy under explicit copying) with a mark under LCM; writes proven
         private update in place — under LCM the memory system still
         backstops them with implicit marks if they touch shared blocks. *)
      let conflicting = List.mem name d.marked_aggs in
      let addr =
        if conflicting then Agg.write_addr a wi wj else Agg.read_addr a wi wj
      in
      if lcm && conflicting then
        Lcm_tempest.Memeff.directive (Lcm_tempest.Memeff.Mark_modification addr);
      Lcm_tempest.Memeff.store addr (Lcm_mem.Word.of_float v)
    | Reduce (name, e) ->
      let r = lookup_reducer env name in
      Reducer.addf ctx r (eval ~i ~j e)
    | If (c, t, f) ->
      if test ~i ~j c then List.iter (exec ~ctx ~i ~j) t
      else List.iter (exec ~ctx ~i ~j) f
  in
  let reducers =
    SSet.elements (List.fold_left stmt_reducers SSet.empty body)
    |> List.map (lookup_reducer env)
  in
  let swap_targets =
    if lcm then []
    else List.map agg d.marked_aggs
  in
  let precopy_targets = if lcm then [] else List.map agg d.precopied in
  fun ?(iter = 0) () ->
    (* conservative pre-copy: move every element of the partially-written
       aggregates into the new buffer before the parallel call *)
    List.iter
      (fun a ->
        Runtime.parallel_apply_2d rt ~iter ~schedule:Schedule.Static
          ~rows:(Agg.rows a) ~cols:(Agg.cols a) (fun _ctx i j ->
            Agg.set a i j (Agg.get a i j)))
      precopy_targets;
    Runtime.parallel_apply_2d rt ~iter ~reducers
      ~flush_between:d.flush_between ~rows ~cols (fun ctx i j ->
        List.iter (exec ~ctx ~i ~j) body);
    List.iter Agg.swap swap_targets

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_idx var ppf = function
  | Self | Off 0 -> Format.pp_print_string ppf var
  | Off d when d > 0 -> Format.fprintf ppf "%s+%d" var d
  | Off d -> Format.fprintf ppf "%s-%d" var (-d)

let rec pp_expr ppf = function
  | Const c -> Format.fprintf ppf "%g" c
  | Ivar -> Format.pp_print_string ppf "#0"
  | Jvar -> Format.pp_print_string ppf "#1"
  | Read (a, di, dj) ->
    Format.fprintf ppf "%s[%a][%a]" a (pp_idx "#0") di (pp_idx "#1") dj
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_expr a pp_expr b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_expr a pp_expr b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_expr a pp_expr b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp_expr a pp_expr b
  | Neg a -> Format.fprintf ppf "(-%a)" pp_expr a
  | Abs a -> Format.fprintf ppf "fabs(%a)" pp_expr a
  | Min (a, b) -> Format.fprintf ppf "min(%a, %a)" pp_expr a pp_expr b
  | Max (a, b) -> Format.fprintf ppf "max(%a, %a)" pp_expr a pp_expr b

let string_of_icmp = function
  | Lt -> "<"
  | Le -> "<="
  | Eq -> "=="
  | Ne -> "!="
  | Ge -> ">="
  | Gt -> ">"

let rec pp_iatom ppf = function
  | I -> Format.pp_print_string ppf "#0"
  | J -> Format.pp_print_string ppf "#1"
  | Rows -> Format.pp_print_string ppf "rows"
  | Cols -> Format.pp_print_string ppf "cols"
  | IConst n -> Format.pp_print_int ppf n
  | IAddc (a, n) -> Format.fprintf ppf "%a+%d" pp_iatom a n
  | IAdd (a, b) -> Format.fprintf ppf "(%a + %a)" pp_iatom a pp_iatom b
  | IMod (a, n) -> Format.fprintf ppf "(%a %% %d)" pp_iatom a n

let rec pp_cond ppf = function
  | ICmp (op, a, b) ->
    Format.fprintf ppf "%a %s %a" pp_iatom a (string_of_icmp op) pp_iatom b
  | FCmp (op, a, b) ->
    Format.fprintf ppf "%a %s %a" pp_expr a (string_of_icmp op) pp_expr b
  | And (a, b) -> Format.fprintf ppf "(%a && %a)" pp_cond a pp_cond b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp_cond a pp_cond b
  | Not a -> Format.fprintf ppf "!(%a)" pp_cond a
  | Interior -> Format.pp_print_string ppf "interior(#0, #1)"

let rec pp_stmt ?(directives = []) indent ppf stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Assign (a, di, dj, e) ->
    if List.mem a directives then
      Format.fprintf ppf "%smark_modification(&%s[%a][%a]);@." pad a
        (pp_idx "#0") di (pp_idx "#1") dj;
    Format.fprintf ppf "%s%s[%a][%a] = %a;@." pad a (pp_idx "#0") di
      (pp_idx "#1") dj pp_expr e
  | Reduce (r, e) -> Format.fprintf ppf "%s%s %%+= %a;@." pad r pp_expr e
  | Work n -> Format.fprintf ppf "%s/* %d cycles of computation */@." pad n
  | If (c, t, f) ->
    Format.fprintf ppf "%sif (%a) {@." pad pp_cond c;
    List.iter (pp_stmt ~directives (indent + 2) ppf) t;
    if f <> [] then begin
      Format.fprintf ppf "%s} else {@." pad;
      List.iter (pp_stmt ~directives (indent + 2) ppf) f
    end;
    Format.fprintf ppf "%s}@." pad

let pp ppf { name; body } =
  Format.fprintf ppf "void %s(...) parallel {@." name;
  List.iter (pp_stmt 2 ppf) body;
  Format.fprintf ppf "}@."

let pp_decision ppf d =
  Format.fprintf ppf
    "marked: [%s]; unmarked: [%s]; flush_between: %b; double-buffered: [%s]; \
     pre-copied: [%s]"
    (String.concat ", " d.marked_aggs)
    (String.concat ", " d.unmarked_aggs)
    d.flush_between
    (String.concat ", " d.marked_aggs)
    (String.concat ", " d.precopied)

let pp_compiled rt ppf ({ name; body } as k) =
  let d = analyze k in
  match Runtime.strategy rt with
  | Runtime.Lcm_directives ->
    Format.fprintf ppf "/* compiled for LCM: %a */@." pp_decision d;
    Format.fprintf ppf "void %s(...) parallel {@." name;
    List.iter (pp_stmt ~directives:d.marked_aggs 2 ppf) body;
    if d.flush_between then Format.fprintf ppf "  flush_copies();@.";
    Format.fprintf ppf "}@.";
    Format.fprintf ppf "/* runtime: reconcile_copies() after the last invocation */@."
  | Runtime.Explicit_copy ->
    Format.fprintf ppf "/* compiled with explicit copying: %a */@." pp_decision d;
    List.iter
      (fun a ->
        Format.fprintf ppf
          "/* runtime: conservative pre-copy %s_new[*][*] = %s[*][*] */@." a a)
      d.precopied;
    Format.fprintf ppf "void %s(...) parallel {@." name;
    Format.fprintf ppf "  /* reads from old copies of: %s */@."
      (String.concat ", " d.marked_aggs);
    List.iter (pp_stmt 2 ppf) body;
    Format.fprintf ppf "}@.";
    List.iter
      (fun a -> Format.fprintf ppf "/* runtime: swap(%s, %s_new) */@." a a)
      d.marked_aggs
