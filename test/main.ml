let () =
  Alcotest.run "perf-taint"
    [
      ("ir", Suite_ir.tests);
      ("taint", Suite_taint.tests);
      ("interp", Suite_interp.tests);
      ("engine", Suite_engine.tests);
      ("compile", Suite_compile.tests);
      ("static", Suite_static.tests);
      ("measure", Suite_measure.tests);
      ("pipeline", Suite_pipeline.tests);
      ("model", Suite_model.tests);
      ("fit-oracle", Suite_fit_oracle.tests);
      ("apps", Suite_apps.tests);
      ("core", Suite_core.tests);
      ("volume", Suite_volume.tests);
      ("stats", Suite_stats.tests);
      ("export", Suite_export.tests);
      ("obs", Suite_obs.tests);
      ("soundness", Suite_soundness.tests);
      ("fuzz", Suite_fuzz.tests);
      ("resilience", Suite_resilience.tests);
      ("shard", Suite_shard.tests);
      ("serve", Suite_serve.tests);
      ("profile", Suite_profile.tests);
      ("par", Suite_par.tests);
      ("cli", Suite_cli.tests);
    ]
