(** Lowering: the compile step between parse and eval.

    Translates {!Ast.expr} into {!Ir.expr} once per command: literal
    values prebuilt (strings interned), names given resolution slots,
    literal arithmetic constant-folded (with lazy-error fallback:
    anything that would raise folds back to the unfolded node, so errors
    surface at evaluation time exactly as before), cast/sizeof/reduction
    renderings precomputed, constant-dimension types pre-resolved, and
    a reduction over a range with {!Ir.pure_single} bounds fused into one
    {!Ir.Reduce_range} node that folds without producing the range.

    [Dynamic] mode is the ablation: the identical tree with every name
    slot pinned to the full lookup chain ([set lower off]) — one
    evaluation path, two resolution strategies. *)

type mode = Cached | Dynamic

val lower : ?mode:mode -> Env.t -> Ast.expr -> Ir.expr
(** Never raises {!Error.Duel_error}: anything unresolvable is left for
    the engines to fail on when (and if) it is actually evaluated. *)

val lower_type : ?mode:mode -> Env.t -> Ast.type_expr -> Ir.type_expr
(** Lower a type expression alone (the mini-C interpreter resolves
    declaration types through this). *)
