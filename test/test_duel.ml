let () =
  Alcotest.run "duel"
    [
      ("ctype", Test_ctype.suite);
      ("layout", Test_layout.suite);
      ("mem", Test_mem.suite);
      ("cprint", Test_cprint.suite);
      ("target", Test_target.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("ops", Test_ops.suite);
      ("generators", Test_generators.suite);
      ("paper", Test_paper.suite);
      ("engines", Test_engines.suite);
      (* the three-way differential battery; the label predates the
         bytecode engine's removal and is kept so test ids stay stable *)
      ("vm", Test_differential.suite);
      ("lower", Test_lower.suite);
      ("display", Test_display.suite);
      ("errors", Test_errors.suite);
      ("rsp", Test_rsp.suite);
      ("backend-conformance", Test_backend_conformance.suite);
      ("dispatcher", Test_dispatcher.suite);
      ("serve", Test_serve.suite);
      ("chaos", Test_chaos.suite);
      ("dcache", Test_dcache.suite);
      ("prefetch", Test_prefetch.suite);
      ("cquery", Test_cquery.suite);
      ("session", Test_session.suite);
      ("minic", Test_minic.suite);
      ("debugger", Test_debugger.suite);
      ("oracle", Test_oracle.suite);
      ("abi-paper", Test_abi_paper.suite);
      ("minic-scenario", Test_minic_scenario.suite);
      ("random-structs", Test_random_structs.suite);
      ("cli", Test_cli.suite);
      ("fuzz", Test_fuzz.suite);
    ]
