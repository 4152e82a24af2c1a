(** The resolved intermediate representation both engines evaluate.

    {!Lower} translates {!Ast.expr} into this tree once per command; the
    engines never see the AST.  The IR differs from the AST where work
    can be hoisted out of the per-value evaluation loop:

    {ul
    {- every literal is a prebuilt {!Value.t} (string literals already
       interned into target space);}
    {- every name carries a mutable {e slot} — an inline cache for the
       five-stage resolution chain, validated against {!Env}'s generation
       counters (see {!Semantics.name_value});}
    {- cast/sizeof/reduction symbolic renderings are precomputed;}
    {- type expressions whose array dimensions are constant are resolved
       to a {!Ctype.t} up front ({!Tready}).}}

    The "unlowered" ablation ([set lower off]) is the same tree with
    every slot pinned to {!Sdynamic}, so there is exactly one evaluation
    path to test and benchmark. *)

module Ctype = Duel_ctype.Ctype
module Layout = Duel_ctype.Layout

(** How a [Name] node resolves.  [Snone] means not yet resolved (or
    resolved to something transient, like an outer-scope member, that is
    never worth caching); [Sdynamic] pins the node to the full lookup
    chain on every pull. *)
type slot =
  | Snone
  | Sdynamic
  | Smember of { m_comp : Ctype.comp; m_fi : Layout.field_info }
      (** innermost-scope struct/union member: valid while the innermost
          scope is a member scope over the physically same component; the
          value is rebuilt from the current scope's subject *)
  | Scached of { c_stamp : Env.stamp; c_value : Value.t }
      (** alias / frame local / global / enum constant, valid while the
          generation stamp holds *)

type name = { n_name : string; mutable n_slot : slot }

type lit = {
  l_value : Value.t;
  l_source : bool;
      (** written as a literal in the source (as opposed to produced by
          constant folding) — [e @ lit] compares for equality only
          against source literals, exactly as the unlowered tree did *)
}

type type_expr =
  | Tready of Ctype.t  (** pre-resolved at lowering time *)
  | Tname of string list
  | Tstruct_ref of string
  | Tunion_ref of string
  | Tenum_ref of string
  | Ttypedef_ref of string
  | Tptr of type_expr
  | Tarr of type_expr * expr option

and expr =
  | Lit of lit
  | Name of name
  | Underscore
  | Unary of Ast.unop * expr
  | Incdec of Ast.incdec * expr
  | Binary of Ast.binop * expr * expr
  | Logand of expr * expr
  | Logor of expr * expr
  | Filter of Ast.filter * expr * expr
  | Cond of expr * expr * expr
  | Assign of Ast.binop option * expr * expr
  | Cast of type_expr * string * expr
      (** the string is the display form ["(type)"], precomputed *)
  | Call of string option * expr list
      (** [None] iff the callee was not a plain name (an error at
          evaluation time, as before) *)
  | Index of expr * expr
  | With of Ast.with_kind * expr * expr
  | To of expr * expr
  | To_inf of expr
  | Up_to of expr
  | Alt of expr * expr
  | Seq of expr * expr
  | Seq_void of expr
  | Imply of expr * expr
  | Def_alias of string * expr
  | Dfs of expr * expr
  | Bfs of expr * expr
  | Select of expr * expr
  | Until of expr * expr
  | Index_alias of expr * string
  | Reduce of Ast.reduction * expr * Symbolic.t
      (** carries the precomputed "as entered" symbolic *)
  | Reduce_range of Ast.reduction * expr option * expr * Symbolic.t
      (** a [Reduce] over a range whose bounds are {!pure_single}, fused
          by {!Lower}: [Some lo, hi] is [lo..hi], [None, n] is [..n].
          Evaluated by {!Semantics.reduce_range} without producing the
          range's values. *)
  | Seq_eq of expr * expr
  | Braces of expr
  | Group of expr
      (** kept: [e @ (0)] and [e @ 0] differ (truth-stop vs equality-stop) *)
  | If of expr * expr * expr option
  | For of expr option * expr option * expr option * expr
  | While of expr * expr
  | Decl of (string * type_expr) list
  | Sizeof_expr of expr * Symbolic.t
  | Sizeof_type of type_expr * Symbolic.t
  | Frame of expr
  | Frames_gen

(** Effect-free expressions producing exactly one value — the operands
    the engines may evaluate with a direct call instead of a nested
    generator (the singleton fast path for [a+i], [x[i]], [a >? 0]...). *)
let rec pure_single = function
  | Lit _ | Name _ | Underscore -> true
  | Group e -> pure_single e
  | _ -> false

(** Structural copy with fresh name records.  Slots are per-environment
    state (stamps are only meaningful against the [Env] that wrote
    them), so a lowered plan cached server-side and shared across
    sessions hands out clones: same literals, symbolics and strings,
    fresh empty slots.  [Sdynamic] pins survive — they are a mode, not
    cached state. *)
let clone_name nm =
  {
    n_name = nm.n_name;
    n_slot = (match nm.n_slot with Sdynamic -> Sdynamic | _ -> Snone);
  }

let rec clone_type te =
  match te with
  | Tready _ | Tname _ | Tstruct_ref _ | Tunion_ref _ | Tenum_ref _
  | Ttypedef_ref _ ->
      te
  | Tptr t -> Tptr (clone_type t)
  | Tarr (t, e) -> Tarr (clone_type t, Option.map clone e)

and clone e =
  match e with
  | Lit _ | Underscore | Frames_gen -> e
  | Name nm -> Name (clone_name nm)
  | Unary (op, a) -> Unary (op, clone a)
  | Incdec (op, a) -> Incdec (op, clone a)
  | Binary (op, a, b) -> Binary (op, clone a, clone b)
  | Logand (a, b) -> Logand (clone a, clone b)
  | Logor (a, b) -> Logor (clone a, clone b)
  | Filter (f, a, b) -> Filter (f, clone a, clone b)
  | Cond (c, t, f) -> Cond (clone c, clone t, clone f)
  | Assign (op, l, r) -> Assign (op, clone l, clone r)
  | Cast (te, s, a) -> Cast (clone_type te, s, clone a)
  | Call (callee, args) -> Call (callee, List.map clone args)
  | Index (a, b) -> Index (clone a, clone b)
  | With (k, a, b) -> With (k, clone a, clone b)
  | To (a, b) -> To (clone a, clone b)
  | To_inf a -> To_inf (clone a)
  | Up_to a -> Up_to (clone a)
  | Alt (a, b) -> Alt (clone a, clone b)
  | Seq (a, b) -> Seq (clone a, clone b)
  | Seq_void a -> Seq_void (clone a)
  | Imply (a, b) -> Imply (clone a, clone b)
  | Def_alias (n, a) -> Def_alias (n, clone a)
  | Dfs (a, b) -> Dfs (clone a, clone b)
  | Bfs (a, b) -> Bfs (clone a, clone b)
  | Select (a, b) -> Select (clone a, clone b)
  | Until (a, b) -> Until (clone a, clone b)
  | Index_alias (a, n) -> Index_alias (clone a, n)
  | Reduce (r, a, sym) -> Reduce (r, clone a, sym)
  | Reduce_range (r, lo, hi, sym) ->
      Reduce_range (r, Option.map clone lo, clone hi, sym)
  | Seq_eq (a, b) -> Seq_eq (clone a, clone b)
  | Braces a -> Braces (clone a)
  | Group a -> Group (clone a)
  | If (c, t, f) -> If (clone c, clone t, Option.map clone f)
  | For (i, c, s, b) ->
      For (Option.map clone i, Option.map clone c, Option.map clone s, clone b)
  | While (c, b) -> While (clone c, clone b)
  | Decl ds -> Decl (List.map (fun (n, te) -> (n, clone_type te)) ds)
  | Sizeof_expr (a, sym) -> Sizeof_expr (clone a, sym)
  | Sizeof_type (te, sym) -> Sizeof_type (clone_type te, sym)
  | Frame a -> Frame (clone a)

(** Commands ending in [;] are evaluated for effect only: their values
    are not displayed. *)
let rec silent = function
  | Seq_void _ -> true
  | Seq (_, b) -> silent b
  | _ -> false
