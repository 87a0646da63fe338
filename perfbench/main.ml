(* Entry point: [main.exe --workload W --seed N --seconds S --trace 0|1
   --cli PATH --work DIR]. Prints a report line, then as its last line
   the result object {correct, attempted, failed, metrics}. *)

let workloads = [ "paper-complex"; "http-star"; "live-rw" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed loop");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--cli", Arg.Set_string cli, " path of the built amber_cli.exe");
      ("--work", Arg.Set_string work, " scratch directory (created, then removed)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH --work DIR";
  if not (List.mem !workload workloads) || !work = "" then begin
    prerr_endline "main.exe: --workload and --work are required";
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  Util.mkdir_p !work;
  let tmp = Filename.concat !work (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  Util.mkdir_p tmp;
  let result =
    Fun.protect
      ~finally:(fun () -> Util.rm_rf tmp)
      (fun () ->
        match !workload with
        | "paper-complex" -> Complex.run ~seed ~seconds ~trace ~work:tmp
        | "http-star" -> Http_star.run ~seed ~seconds ~trace ~work:tmp ~cli:!cli
        | _ -> Live_rw.run ~seed ~seconds ~trace ~work:tmp)
  in
  if trace then
    Trace.write
      (Filename.concat !work (Printf.sprintf "spans-%s-seed%d.jsonl" !workload seed));
  let o = result.Common.outcome in
  Util.log "%s done: %d attempted, %d failed" !workload o.attempted o.failed;
  print_endline
    (Obs.Json.to_text
       (Obs.Json.Obj
          [
            ( "report",
              Obs.Json.Obj
                (("workload", Obs.Json.Str !workload)
                :: ("seed", Util.num seed)
                :: ("trace", Obs.Json.Bool trace)
                :: result.report
                @ [ ("failures", Obs.Json.Arr (List.rev_map (fun m -> Obs.Json.Str m) o.messages)) ]) );
          ]));
  print_endline
    (Obs.Json.to_text
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (o.failed = 0));
            ("attempted", Util.num o.attempted);
            ("failed", Util.num o.failed);
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Obs.Json.Obj [ ("value", Util.value v); ("unit", Obs.Json.Str unit) ]))
                   result.metrics) );
          ]))
