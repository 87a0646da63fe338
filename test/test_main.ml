(* Aggregates every suite into one alcotest binary. *)

let () =
  Alcotest.run "amber"
    (List.concat
       [
         Test_rdf.suite;
         Test_turtle.suite;
         Test_mgraph.suite;
         Test_posting.suite;
         Test_sparql.suite;
         Test_amber.suite;
         Test_matcher.suite;
         Test_deadline.suite;
         Test_obs.suite;
         Test_flight.suite;
         Test_extended.suite;
         Test_storage.suite;
         Test_snapshot.suite;
         Test_packed.suite;
         Test_endpoint.suite;
         Test_order_by.suite;
         Test_forms.suite;
         Test_more_units.suite;
         Test_bench_util.suite;
         Test_baselines.suite;
         Test_datagen.suite;
         Test_cross.suite;
         Test_properties.suite;
         Test_fuzz.suite;
         Test_algebra_ref.suite;
         Test_parallel.suite;
         Test_differential.suite;
         Test_delta.suite;
         Test_analysis.suite;
         Test_rewrite.suite;
       ])
