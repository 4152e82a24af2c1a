module Ctype = Duel_ctype.Ctype

type mode = Cached | Dynamic

let slot_of = function Cached -> Ir.Snone | Dynamic -> Ir.Sdynamic

(* Literal values are built once, here.  String literals are interned
   into target space at lowering time (the intern table makes this
   idempotent), so evaluation never allocates. *)
let lit_value env (e : Ast.expr) =
  match e with
  | Ast.Int_lit (v, t, lex) ->
      Some (Value.int_value ~sym:(Symbolic.atom lex) t v)
  | Ast.Float_lit (v, t, lex) ->
      Some (Value.float_value ~sym:(Symbolic.atom lex) t v)
  | Ast.Char_lit (c, lex) ->
      Some
        (Value.int_value ~sym:(Symbolic.atom lex) Ctype.char
           (Int64.of_int (Char.code c)))
  | Ast.Str_lit s ->
      let addr = Env.string_literal env s in
      Some
        (Value.lvalue
           ~sym:(Symbolic.atom (Printf.sprintf "%S" s))
           (Ctype.Array (Ctype.char, Some (String.length s + 1)))
           addr)
  | _ -> None

(* A lowered operand usable for constant folding: a literal, possibly
   parenthesized.  Folding through Group is sound — Group changes
   neither value nor symbolic. *)
let rec folded_lit (e : Ir.expr) =
  match e with
  | Ir.Lit l -> Some l.Ir.l_value
  | Ir.Group inner -> folded_lit inner
  | _ -> None

(* Foldable operand: a scalar rvalue literal.  Lvalue literals (interned
   strings) are excluded — folding over them could read target memory at
   lowering time, and a store earlier in the same command must be seen. *)
let scalar_lit e =
  match folded_lit e with
  | Some ({ Value.st = Value.Rint _ | Value.Rfloat _; _ } as v) -> Some v
  | _ -> None

let rec const_int (e : Ir.expr) =
  match e with
  | Ir.Lit { Ir.l_value = { Value.st = Value.Rint i; _ }; _ } -> Some i
  | Ir.Group inner -> const_int inner
  | _ -> None

let rec const_dims_only (te : Ir.type_expr) =
  match te with
  | Ir.Tready _ | Ir.Tname _ | Ir.Tstruct_ref _ | Ir.Tunion_ref _
  | Ir.Tenum_ref _ | Ir.Ttypedef_ref _ ->
      true
  | Ir.Tptr t -> const_dims_only t
  | Ir.Tarr (t, None) -> const_dims_only t
  | Ir.Tarr (t, Some d) -> const_int d <> None && const_dims_only t

(* Pre-resolve a type whose dimensions are all constant; on failure
   (unknown tag, incomplete type) keep the syntactic form so the error
   surfaces at evaluation time, exactly where the unlowered tree raised
   it — lowering itself never fails. *)
let finalize_type env (te : Ir.type_expr) =
  if const_dims_only te then
    match
      Semantics.resolve_type env
        ~eval_int:(fun e ->
          match const_int e with Some i -> i | None -> assert false)
        te
    with
    | t -> Ir.Tready t
    | exception Error.Duel_error _ -> te
  else te

(* Reduce fusion: a reduction over [lo..hi] or [..n] whose bounds are
   pure singletons needs no generator for the range — the fold runs
   straight over the bounds ({!Semantics.reduce_range}).  Anything else
   (a generator bound, an open range) keeps the plain [Reduce]. *)
let rec fusable_range (e : Ir.expr) =
  match e with
  | Ir.Group a -> fusable_range a
  | Ir.To (lo, hi) when Ir.pure_single lo && Ir.pure_single hi ->
      Some (Some lo, hi)
  | Ir.Up_to n when Ir.pure_single n -> Some (None, n)
  | _ -> None

let rec lower_expr env mode (e : Ast.expr) : Ir.expr =
  let go e = lower_expr env mode e in
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Char_lit _ | Ast.Str_lit _ -> (
      match lit_value env e with
      | Some v -> Ir.Lit { Ir.l_value = v; l_source = true }
      | None -> assert false)
  | Ast.Name n -> Ir.Name { Ir.n_name = n; n_slot = slot_of mode }
  | Ast.Underscore -> Ir.Underscore
  | Ast.Unary (op, a) -> (
      let a' = go a in
      match scalar_lit a' with
      | Some v -> (
          (* fold only when the operator succeeds now; a failing fold
             (e.g. [&3]) falls back so the error stays lazy *)
          match Ops.unary env op v with
          | r -> Ir.Lit { Ir.l_value = r; l_source = false }
          | exception Error.Duel_error _ -> Ir.Unary (op, a'))
      | None -> Ir.Unary (op, a'))
  | Ast.Incdec (op, a) -> Ir.Incdec (op, go a)
  | Ast.Binary (op, a, b) -> (
      let a' = go a and b' = go b in
      match (scalar_lit a', scalar_lit b') with
      | Some u, Some v -> (
          match Ops.binary env op u v with
          | r -> Ir.Lit { Ir.l_value = r; l_source = false }
          | exception Error.Duel_error _ -> Ir.Binary (op, a', b'))
      | _ -> Ir.Binary (op, a', b'))
  | Ast.Logand (a, b) -> Ir.Logand (go a, go b)
  | Ast.Logor (a, b) -> Ir.Logor (go a, go b)
  | Ast.Filter (f, a, b) -> Ir.Filter (f, go a, go b)
  | Ast.Cond (c, t, f) -> Ir.Cond (go c, go t, go f)
  | Ast.Assign (op, l, r) -> Ir.Assign (op, go l, go r)
  | Ast.Cast (te, a) ->
      Ir.Cast
        ( lower_type_expr env mode te,
          "(" ^ Pretty.type_to_string te ^ ")",
          go a )
  | Ast.Call (callee, args) ->
      let name = match callee with Ast.Name n -> Some n | _ -> None in
      Ir.Call (name, List.map go args)
  | Ast.Index (a, b) -> Ir.Index (go a, go b)
  | Ast.With (kind, lhs, rhs) -> Ir.With (kind, go lhs, go rhs)
  | Ast.To (a, b) -> Ir.To (go a, go b)
  | Ast.To_inf a -> Ir.To_inf (go a)
  | Ast.Up_to a -> Ir.Up_to (go a)
  | Ast.Alt (a, b) -> Ir.Alt (go a, go b)
  | Ast.Seq (a, b) -> Ir.Seq (go a, go b)
  | Ast.Seq_void a -> Ir.Seq_void (go a)
  | Ast.Imply (a, b) -> Ir.Imply (go a, go b)
  | Ast.Def_alias (name, a) -> Ir.Def_alias (name, go a)
  | Ast.Dfs (roots, step) -> Ir.Dfs (go roots, go step)
  | Ast.Bfs (roots, step) -> Ir.Bfs (go roots, go step)
  | Ast.Select (a, b) -> Ir.Select (go a, go b)
  | Ast.Until (a, stop) -> Ir.Until (go a, go stop)
  | Ast.Index_alias (a, name) -> Ir.Index_alias (go a, name)
  | Ast.Reduce (r, a) -> (
      let sym = Symbolic.atom (Pretty.to_string e) in
      let a' = go a in
      match fusable_range a' with
      | Some (lo, hi) -> Ir.Reduce_range (r, lo, hi, sym)
      | None -> Ir.Reduce (r, a', sym))
  | Ast.Seq_eq (a, b) -> Ir.Seq_eq (go a, go b)
  | Ast.Braces a -> Ir.Braces (go a)
  | Ast.Group a -> Ir.Group (go a)
  | Ast.If (c, t, f) -> Ir.If (go c, go t, Option.map go f)
  | Ast.For (init, cond, step, body) ->
      Ir.For (Option.map go init, Option.map go cond, Option.map go step, go body)
  | Ast.While (cond, body) -> Ir.While (go cond, go body)
  | Ast.Decl (_base, decls) ->
      (* each declarator's type already embeds the base specifier *)
      Ir.Decl
        (List.map (fun (n, te) -> (n, lower_type_expr env mode te)) decls)
  | Ast.Sizeof_expr a ->
      Ir.Sizeof_expr (go a, Symbolic.atom (Pretty.to_string e))
  | Ast.Sizeof_type te ->
      Ir.Sizeof_type
        (lower_type_expr env mode te, Symbolic.atom (Pretty.to_string e))
  | Ast.Frame a -> Ir.Frame (go a)
  | Ast.Frames_gen -> Ir.Frames_gen

and lower_type_expr env mode (te : Ast.type_expr) : Ir.type_expr =
  let lowered =
    let rec syn te =
      match te with
      | Ast.Tname w -> Ir.Tname w
      | Ast.Tstruct_ref s -> Ir.Tstruct_ref s
      | Ast.Tunion_ref s -> Ir.Tunion_ref s
      | Ast.Tenum_ref s -> Ir.Tenum_ref s
      | Ast.Ttypedef_ref s -> Ir.Ttypedef_ref s
      | Ast.Tptr t -> Ir.Tptr (syn t)
      | Ast.Tarr (t, dim) ->
          Ir.Tarr (syn t, Option.map (lower_expr env mode) dim)
    in
    syn te
  in
  finalize_type env lowered

let lower ?(mode = Cached) env ast = lower_expr env mode ast
let lower_type ?(mode = Cached) env te = lower_type_expr env mode te
