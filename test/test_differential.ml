(* The engines that remain, held to one semantics: a three-way
   differential battery (unlowered walker vs lowered walker vs state
   machine must be bit-identical, including error lines and target
   stdout), directed parity of the reduce fusion [Lower] performs (the
   fused node on both engines against the unfused tree), and a
   suspended sequence resuming across [Session.exec] flush points. *)

open Support
module Session = Duel_core.Session
module Env = Duel_core.Env
module Ir = Duel_core.Ir

(* One query, three engines, three fresh identical debuggees.  "ast" is
   the unlowered walker (every slot dynamic), "ir" the lowered walker,
   "sm" the state machine on the same lowered IR. *)
let run_three ?(scenario = `All) ?(tune = fun _ -> ()) query =
  let run engine lower =
    let k = kit ~engine ~scenario () in
    k.session.Session.lower <- lower;
    tune k;
    let lines = exec k query in
    let out = Duel_target.Inferior.take_output k.inf in
    let depth = Env.scope_depth k.session.Session.env in
    (lines, out, depth)
  in
  ( run Session.Seq_engine false,
    run Session.Seq_engine true,
    run Session.Sm_engine true )

let agree ?scenario ?tune query =
  let (l1, o1, d1), (l2, o2, d2), (l3, o3, d3) =
    run_three ?scenario ?tune query
  in
  Alcotest.(check (list string)) "ast vs ir lines" l1 l2;
  Alcotest.(check (list string)) "ir vs sm lines" l2 l3;
  Alcotest.(check string) "ast vs ir stdout" o1 o2;
  Alcotest.(check string) "ir vs sm stdout" o2 o3;
  Alcotest.(check int) "ast scope depth restored" 0 d1;
  Alcotest.(check int) "ir scope depth restored" 0 d2;
  Alcotest.(check int) "sm scope depth restored" 0 d3

let corpus_case query =
  Support.case ("three engines agree: " ^ query) (fun () -> agree query)

(* Error parity: faults, cycles and expansion limits must come back as
   the same formatted lines from all three engines. *)
let error_corpus =
  [
    "(*lone).value";
    "dang->next->next->next->value";
    "dang-->next->value";
    "dang->(value, next->next->next->value)";
    "cyc->bogus";
    "#/(dang-->next->value)";
    "lone-->next->value";
  ]

let error_case query =
  Support.case ("faulty parity: " ^ query) (fun () ->
      agree ~scenario:`Faulty query)

let cycle_cases =
  [
    Support.case "faulty parity: expansion limit" (fun () ->
        agree ~scenario:`Faulty
          ~tune:(fun k ->
            k.session.Session.env.Env.flags.Env.expansion_limit <- 16)
          "cyc-->next->value");
    Support.case "faulty parity: cycle detection" (fun () ->
        agree ~scenario:`Faulty
          ~tune:(fun k ->
            k.session.Session.env.Env.flags.Env.cycle_detect <- true)
          "cyc-->next->value");
  ]

let prop_three_agree =
  QCheck2.Test.make ~name:"three engines agree on random expressions"
    ~count:200 Test_engines.gen_query (fun query ->
      let (l1, o1, d1), (l2, o2, d2), (l3, o3, d3) = run_three query in
      l1 = l2 && l2 = l3 && o1 = o2 && o2 = o3 && d1 = 0 && d2 = 0 && d3 = 0)

(* --- reduce fusion parity -------------------------------------------------- *)

(* The tree lowering built before fusion: every fused node (at the root,
   or under the [->]/[.] and parentheses these cases use) back to
   [Reduce] over its range.  Fails when there is nothing to unfuse, so a
   case cannot pass without fusion having fired. *)
let rec unfuse (e : Ir.expr) =
  match e with
  | Ir.Reduce_range (r, Some lo, hi, sym) -> Ir.Reduce (r, Ir.To (lo, hi), sym)
  | Ir.Reduce_range (r, None, n, sym) -> Ir.Reduce (r, Ir.Up_to n, sym)
  | Ir.With (k, a, b) -> Ir.With (k, a, unfuse b)
  | Ir.Group a -> Ir.Group (unfuse a)
  | _ -> Alcotest.fail "no fused reduce node in the lowered tree"

(* Fused node on seq, fused node on sm, unfused tree on seq: three fresh
   debuggees, identical lines (so identical symbolics and error text). *)
let fusion_agree ?(scenario = `All) query =
  let run engine rewrite =
    let k = kit ~engine ~scenario () in
    let ir = Session.compile k.session (Session.parse k.session query) in
    Session.exec_ir k.session (rewrite ir)
  in
  let unfused = run Session.Seq_engine unfuse in
  Alcotest.(check (list string)) "fused seq vs unfused" unfused
    (run Session.Seq_engine Fun.id);
  Alcotest.(check (list string)) "fused sm vs unfused" unfused
    (run Session.Sm_engine Fun.id)

let fusion_cases =
  List.map
    (fun (label, queries) ->
      Support.case ("fusion parity: " ^ label) (fun () ->
          List.iter fusion_agree queries))
    [
      ( "empty range",
        [ "+/(5..1)"; "#/(5..1)"; "&&/(5..1)"; "||/(5..1)"; "#/(..0)";
          "+/(..0)"; "&&/(..-2)" ] );
      ( "&&/ and ||/ around 0",
        [ "&&/(1..5)"; "&&/(-3..3)"; "&&/(-3..-1)"; "&&/(0..0)"; "&&/(..1)";
          "||/(1..5)"; "||/(-3..3)"; "||/(0..0)"; "||/(0..1)"; "||/(-1..0)";
          "||/(..1)"; "||/(..2)" ] );
      ( "+/ wraps past Int64.max_int",
        [ "+/(4611686018427387904..4611686018427387906)";
          "+/(9223372036854775800..9223372036854775806)" ] );
      ( "bounds from target variables",
        [ "#/(..argc)"; "+/(i0..argc)"; "+/(paint..argc)"; "#/(dd..argc)";
          "+/(..argc)"; "&&/(i0..argc)"; "||/(i0..i0)" ] );
    ]
  @ [
      Support.case "fusion parity: bound that faults" (fun () ->
          List.iter (fusion_agree ~scenario:`Faulty)
            [ "dang->next->next->next->(#/(..value))";
              "dang->next->next->next->(+/(1..value))";
              "dang->next->next->next->(&&/(value..5))" ];
          List.iter fusion_agree [ "+/(1..nosuch)"; "#/(..nosuch)" ]);
    ]

(* --- a suspended sequence ------------------------------------------------ *)

(* A partly consumed evaluation is a plain value: pull a few values, run
   whole other commands through the session (each one a flush point that
   restores scope depth and flushes the write cache), then resume and get
   exactly the rest of the sequence — on both engines. *)
let range_suspension_case =
  Support.case "suspended range resumes mid-stream" (fun () ->
      List.iter
        (fun engine ->
          let k = kit ~engine () in
          let ir =
            Session.compile k.session (Session.parse k.session "(1..6)*10")
          in
          let next = Seq.to_dispenser (Session.eval_ir k.session ir) in
          let a = next () and b = next () in
          Alcotest.(check (list string)) "interleaved eval" [ "w[0] = 3" ]
            (exec k "w[0] = 3; w[0]");
          let rest = List.init 4 (fun _ -> next ()) in
          let shown =
            List.map
              (function
                | Some v -> Session.format_value k.session v | None -> "<end>")
              (a :: b :: rest)
          in
          Alcotest.(check (list string)) "values"
            [ "1*10 = 10"; "2*10 = 20"; "3*10 = 30"; "4*10 = 40";
              "5*10 = 50"; "6*10 = 60" ]
            shown;
          Alcotest.(check bool) "exhausted" true (next () = None))
        [ Session.Seq_engine; Session.Sm_engine ])

let suite =
  List.map corpus_case Test_engines.corpus
  @ List.map error_case error_corpus
  @ cycle_cases
  @ [ QCheck_alcotest.to_alcotest prop_three_agree ]
  @ fusion_cases
  @ [ range_suspension_case ]
