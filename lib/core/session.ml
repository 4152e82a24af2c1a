module Tenv = Duel_ctype.Tenv
module Dbgi = Duel_dbgi.Dbgi

type engine = Seq_engine | Sm_engine

type t = {
  env : Env.t;
  mutable engine : engine;
  mutable max_values : int;
  mutable lower : bool;
}

(* The resolution cache snoops the same write-generation counter as the
   data cache (when the interface has one): a store that bypassed us
   invalidates cached global slots exactly when it drops cached lines. *)
let create ?(engine = Seq_engine) dbg =
  let probe = Duel_dbgi.Dcache.coherence_probe dbg in
  { env = Env.create ?probe dbg; engine; max_values = 0; lower = true }

let parse session src =
  let tenv = session.env.Env.dbg.Dbgi.tenv in
  let is_typename name = Tenv.find_typedef tenv name <> None in
  Parser.parse ~is_typename ~abi:session.env.Env.dbg.Dbgi.abi src

let compile session ast =
  let mode = if session.lower then Lower.Cached else Lower.Dynamic in
  Lower.lower ~mode session.env ast

let eval_ir session ir =
  match session.engine with
  | Seq_engine -> Eval_seq.eval session.env ir
  | Sm_engine -> Eval_sm.eval session.env ir

let eval session ast = eval_ir session (compile session ast)

(* Commands are flush points: any stores the data cache coalesced during
   evaluation reach the target before control returns, so the inferior's
   own code (and tests reading memory directly) see consistent state. *)
let flush_writes session = Duel_dbgi.Dcache.flush session.env.Env.dbg

let drive_ir session ir =
  let depth = Env.scope_depth session.env in
  let n = Seq.fold_left (fun acc _ -> acc + 1) 0 (eval_ir session ir) in
  Env.restore_scope_depth session.env depth;
  flush_writes session;
  n

let drive session ast = drive_ir session (compile session ast)

let format_value session v =
  let threshold = session.env.Env.flags.Env.compress in
  let sym = Symbolic.compress ~threshold (Symbolic.to_string v.Value.sym) in
  (* A Duel_error raised while rendering (e.g. fetching an unreadable
     scalar lvalue) propagates: the command reports the error itself. *)
  sym ^ " = " ^ Printer.value_to_string session.env v

(* The shared command wrapper: evaluate a lazily-produced sequence,
   format (or count) its values, map every failure to the session's
   error lines, restore the scope stack, flush coalesced writes. *)
let exec_with session (produce : unit -> bool * Value.t Seq.t) =
  let depth = Env.scope_depth session.env in
  let lines = ref [] in
  let emit line = lines := line :: !lines in
  (try
     let quiet, seq = produce () in
     let count = ref 0 in
     let consume v =
       incr count;
       if not quiet then
         if session.max_values = 0 || !count <= session.max_values then
           emit (format_value session v)
         else if !count = session.max_values + 1 then emit "..."
     in
     Seq.iter consume seq
   with
  | Lexer.Error (msg, pos) ->
      emit (Printf.sprintf "syntax error at character %d: %s" pos msg)
  | Parser.Error (msg, pos) ->
      emit (Printf.sprintf "parse error at character %d: %s" pos msg)
  | Error.Duel_error err -> emit (Error.to_string err)
  | Dbgi.Target_fault { addr; len } ->
      emit
        (Printf.sprintf "Illegal memory reference: address 0x%x (%d-byte access)"
           addr len)
  | Dbgi.Target_transient { addr; len } ->
      (* the transport flaked, not the program: the command failed but the
         session (aliases, scopes, caches) is intact — rerunning it is the
         right response, and the data cache has already marked itself
         stale so the rerun re-reads the target *)
      emit
        (Printf.sprintf
           "Transient target fault: address 0x%x (%d-byte access); the \
            command may be retried"
           addr len)
  | Stack_overflow -> emit "evaluation too deep (stack overflow)"
  | Out_of_memory as e -> raise e
  | e ->
      (* a command prompt is a main loop: surface anything a backend or
         called target function may throw, then keep the session alive *)
      emit (Printexc.to_string e));
  Env.restore_scope_depth session.env depth;
  (* The end-of-command flush talks to the target too: over a flaky
     transport it can fault after a perfectly good evaluation.  Keep the
     contract that exec never raises — the cache keeps the unflushed
     ranges buffered and marks itself stale, so the next flush point
     retries the batch. *)
  (try flush_writes session with
  | Dbgi.Target_fault { addr; len } ->
      emit
        (Printf.sprintf
           "Illegal memory reference: address 0x%x (%d-byte access)" addr len)
  | Dbgi.Target_transient { addr; len } ->
      emit
        (Printf.sprintf
           "Transient target fault: address 0x%x (%d-byte access); the \
            command may be retried"
           addr len));
  List.rev !lines

(* Values of a command ending in ';' are evaluated for side effects only
   and not displayed ({!Ir.silent}). *)
let exec session src =
  exec_with session (fun () ->
      let ir = compile session (parse session src) in
      (Ir.silent ir, eval_ir session ir))

(* Run already-lowered IR (the serve layer's plan cache) on the
   session's engine: same output contract as [exec] on its source text. *)
let exec_ir session ir =
  exec_with session (fun () -> (Ir.silent ir, eval_ir session ir))

let exec_string session src = String.concat "\n" (exec session src)

let cache_stats session =
  let dbg = session.env.Env.dbg in
  match Duel_dbgi.Dcache.stats dbg with
  | None -> [ "memory cache: off" ]
  | Some st ->
      Printf.sprintf "memory cache: on (%d lines resident)"
        (Duel_dbgi.Dcache.cached_lines dbg)
      :: Duel_dbgi.Dcache.to_lines st

let prefetch_stats session =
  let dbg = session.env.Env.dbg in
  match Duel_dbgi.Prefetch.stats dbg with
  | None ->
      [
        (if Duel_dbgi.Dcache.is_cached dbg then
           "prefetch: off (no predictor attached; see --no-prefetch)"
         else "prefetch: off (no data cache to speculate into)");
      ]
  | Some st ->
      Duel_dbgi.Prefetch.to_lines ~on:(Duel_dbgi.Prefetch.enabled dbg) st

let set_prefetch session on =
  let dbg = session.env.Env.dbg in
  if on && not (Duel_dbgi.Prefetch.is_attached dbg) then
    (* started with --no-prefetch: attach lazily if there is a cache *)
    ignore (Duel_dbgi.Prefetch.attach dbg);
  Duel_dbgi.Prefetch.set_enabled dbg on

let lower_stats session =
  let ls = session.env.Env.lstats in
  [
    Printf.sprintf "lowering: %s" (if session.lower then "on" else "off");
    Printf.sprintf "slot lookups: %d hits, %d misses (%d stale), %d dynamic"
      ls.Env.l_hits ls.Env.l_misses ls.Env.l_stale ls.Env.l_dynamic;
  ]
