(* Robustness fuzzing: arbitrary input must either parse or raise the
   defined Lexer.Error/Parser.Error — never anything else — and whatever
   parses must evaluate without escaping the session's error handling.
   (A debugger that crashes on a typo is worse than no debugger.) *)

module Session = Duel_core.Session
module Lexer = Duel_core.Lexer
module Parser = Duel_core.Parser

let printable =
  QCheck2.Gen.(map Char.chr (int_range 32 126))

(* A mix of raw garbage and token-soup built from DUEL's own vocabulary,
   which reaches much deeper into the parser than pure noise. *)
let gen_input : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let garbage = string_size ~gen:printable (int_range 0 40) in
  let tokens =
    oneofl
      [ "x"; "hash"; "L"; "1"; "0x10"; "'c'"; "\"s\""; ".."; ","; "=>"; ":=";
        "-->"; "->"; "."; "[["; "]]"; "["; "]"; "("; ")"; "{"; "}"; ">?";
        "==?"; "#/"; "#"; "@"; ";"; "+"; "*"; "&&"; "||"; "if"; "else";
        "for"; "while"; "int"; "struct"; "sizeof"; "_"; "=="; "="; "frames" ]
  in
  let soup =
    map (String.concat " ") (list_size (int_range 0 25) tokens)
  in
  oneof [ garbage; soup ]

let session = lazy (Support.kit ()).Support.session

let prop_never_crashes =
  QCheck2.Test.make ~name:"random input never escapes defined errors"
    ~print:(fun s -> s) ~count:2000 gen_input (fun input ->
      let s = Lazy.force session in
      s.Session.max_values <- 50;
      s.Session.env.Duel_core.Env.flags.Duel_core.Env.expansion_limit <- 1000;
      (* exec catches everything a session should; anything escaping it
         (other than the resource guards) fails the property *)
      match Session.exec s input with
      | (_ : string list) -> true
      | exception Out_of_memory -> true)

(* The lexer alone, on raw bytes including non-printables. *)
let prop_lexer_total =
  QCheck2.Test.make ~name:"lexer is total (token list or Lexer.Error)"
    ~count:2000
    QCheck2.Gen.(string_size (int_range 0 60))
    (fun input ->
      match Lexer.tokenize ~abi:Duel_ctype.Abi.lp64 input with
      | (_ : (Duel_core.Token.t * int) list) -> true
      | exception Lexer.Error _ -> true)

(* The parser alone: parse or Parser.Error/Lexer.Error, nothing else. *)
let prop_parser_total =
  QCheck2.Test.make ~name:"parser is total on printable input" ~count:2000
    gen_input (fun input ->
      match Parser.parse ~abi:Duel_ctype.Abi.lp64 input with
      | (_ : Duel_core.Ast.expr) -> true
      | exception Parser.Error _ -> true
      | exception Lexer.Error _ -> true)

(* Directed: a runaway loop must come back as a reported error, never
   hang the session (the fuzzer's token soup can and does produce
   `while (1) 2`-shaped inputs). *)
let runaway_loop_bounded () =
  List.iter
    (fun engine ->
      let s = (Support.kit ()).Support.session in
      s.Session.engine <- engine;
      s.Session.env.Duel_core.Env.flags.Duel_core.Env.expansion_limit <- 1000;
      List.iter
        (fun src ->
          let lines = Session.exec s src in
          Alcotest.(check bool)
            (Printf.sprintf "%S reports the iteration limit" src)
            true
            (List.exists
               (fun l -> Support.contains_sub l "iterations")
               lines))
        (* the third body yields no values at all: the bound must count
           iterations, not produced values *)
        [ "while (1) 2;"; "for (; 1; ) 2;"; "while (1) {2;}" ])
    [ Session.Seq_engine; Session.Sm_engine ]

(* Directed: the open range [1..] is infinite by construction; a fully
   consumed one (a bare statement drains its sequence) must come back as
   the expansion-limit error in every engine, never hang.  (Found by the
   fuzzer: the token soup produces "1 .." readily.) *)
let open_range_bounded () =
  List.iter
    (fun engine ->
      let s = (Support.kit ()).Support.session in
      s.Session.engine <- engine;
      s.Session.max_values <- 5;
      s.Session.env.Duel_core.Env.flags.Duel_core.Env.expansion_limit <- 1000;
      List.iter
        (fun src ->
          let lines = Session.exec s src in
          Alcotest.(check bool)
            (Printf.sprintf "%S reports the open-range limit" src)
            true
            (List.exists
               (fun l -> Support.contains_sub l "open range exceeded")
               lines))
        [ "1.."; "0x10.."; "(1..) + 1" ])
    [ Session.Seq_engine; Session.Sm_engine ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lexer_total;
    QCheck_alcotest.to_alcotest prop_parser_total;
    QCheck_alcotest.to_alcotest prop_never_crashes;
    Support.case "runaway loop is bounded (both engines)" runaway_loop_bounded;
    Support.case "open range is bounded (all engines)" open_range_bounded;
  ]
