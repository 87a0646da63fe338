type vertex_report = {
  variable : string;
  core : bool;
  structural : int;
  refined : int;
}

type t = {
  core_order : string list list;
  vertices : vertex_report list;
  stats : Matcher.stats;
  span : Obs.Span.t;
  rows : int;
  truncated : bool;
  analysis : Amber_analysis.report;
  plan_mode : string;
  plan_seeds : Stats.seed_report list;
  rewrites : Amber_rewrite.step list;
}

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "rows: %d%s@," t.rows
    (if t.truncated then " (truncated)" else "");
  if t.analysis.Amber_analysis.items <> [] then begin
    Format.fprintf ppf "analysis:@,";
    let listing = Format.asprintf "%a" Amber_analysis.pp_report t.analysis in
    List.iter
      (fun line -> if line <> "" then Format.fprintf ppf "  %s@," line)
      (String.split_on_char '\n' listing)
  end;
  Format.fprintf ppf "phases:@,";
  (* Span.pp prints its own newlines; capture and indent. *)
  let tree = Format.asprintf "%a" Obs.Span.pp t.span in
  List.iter
    (fun line -> if line <> "" then Format.fprintf ppf "  %s@," line)
    (String.split_on_char '\n' tree);
  List.iteri
    (fun i order ->
      Format.fprintf ppf "core order (component %d): %s@," i
        (if order = [] then "-"
         else String.concat " -> " (List.map (fun v -> "?" ^ v) order)))
    t.core_order;
  Format.fprintf ppf "plan: %s@," t.plan_mode;
  if t.rewrites <> [] then begin
    Format.fprintf ppf "rewrites:@,";
    List.iter
      (fun s -> Format.fprintf ppf "  @[<v>%a@]@," Amber_rewrite.pp_step s)
      t.rewrites
  end;
  if t.plan_seeds <> [] then begin
    Format.fprintf ppf "seed strategies (est -> actual):@,";
    List.iter
      (fun r ->
        let c = r.Stats.choice in
        Format.fprintf ppf "  ?%-12s %-6s%s %8d -> %d@," r.Stats.variable
          (Stats.strategy_slug c.Stats.strategy)
          (if c.Stats.fallback then " (fallback)" else "")
          c.Stats.est_candidates r.Stats.actual)
      t.plan_seeds
  end;
  if t.vertices <> [] then begin
    Format.fprintf ppf "candidates (synopsis -> refined):@,";
    List.iter
      (fun v ->
        Format.fprintf ppf "  ?%-12s %-9s %8d -> %d@," v.variable
          (if v.core then "core" else "satellite")
          v.structural v.refined)
      t.vertices
  end;
  let s = t.stats in
  Format.fprintf ppf
    "matcher: index_probes=%d synopsis_probes=%d attribute_probes=%d \
     cache_hits=%d cache_misses=%d candidates_scanned=%d \
     satellite_rejections=%d solutions=%d@]"
    s.Matcher.index_probes s.Matcher.synopsis_probes s.Matcher.attribute_probes
    s.Matcher.probe_cache_hits s.Matcher.probe_cache_misses
    s.Matcher.candidates_scanned s.Matcher.satellite_rejections
    s.Matcher.solutions

let json_string s = "\"" ^ Obs.Json.escape s ^ "\""

let seed_to_json r =
  let c = r.Stats.choice in
  Printf.sprintf
    {|{"variable":%s,"strategy":%s,"fallback":%b,"estimate":%d,"actual":%d,"cost_attrs":%s,"cost_scan":%d}|}
    (json_string r.Stats.variable)
    (json_string (Stats.strategy_slug c.Stats.strategy))
    c.Stats.fallback c.Stats.est_candidates r.Stats.actual
    (match c.Stats.cost_attrs with
    | None -> "null"
    | Some n -> string_of_int n)
    c.Stats.cost_scan

let plan_to_json ~plan_mode ~plan_seeds =
  Printf.sprintf {|{"mode":%s,"seeds":[%s]}|} (json_string plan_mode)
    (String.concat "," (List.map seed_to_json plan_seeds))

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf {|{"rows":%d,"truncated":%b,"core_order":[|} t.rows
       t.truncated);
  List.iteri
    (fun i order ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      List.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf {|"%s"|} (Obs.Json.escape v)))
        order;
      Buffer.add_char buf ']')
    t.core_order;
  Buffer.add_string buf {|],"vertices":[|};
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           {|{"variable":"%s","core":%b,"synopsis_candidates":%d,"refined_candidates":%d}|}
           (Obs.Json.escape v.variable) v.core v.structural v.refined))
    t.vertices;
  let s = t.stats in
  Buffer.add_string buf
    (Printf.sprintf
       {|],"stats":{"index_probes":%d,"synopsis_probes":%d,"attribute_probes":%d,"probe_cache_hits":%d,"probe_cache_misses":%d,"candidates_scanned":%d,"satellite_rejections":%d,"solutions":%d},"phases":|}
       s.Matcher.index_probes s.Matcher.synopsis_probes
       s.Matcher.attribute_probes s.Matcher.probe_cache_hits
       s.Matcher.probe_cache_misses s.Matcher.candidates_scanned
       s.Matcher.satellite_rejections s.Matcher.solutions);
  Buffer.add_string buf (Obs.Span.to_json t.span);
  Buffer.add_string buf {|,"plan":|};
  Buffer.add_string buf
    (plan_to_json ~plan_mode:t.plan_mode ~plan_seeds:t.plan_seeds);
  Buffer.add_string buf {|,"rewrites":|};
  Buffer.add_string buf (Amber_rewrite.steps_to_json t.rewrites);
  Buffer.add_string buf {|,"analysis":|};
  Buffer.add_string buf (Amber_analysis.report_to_json t.analysis);
  Buffer.add_char buf '}';
  Buffer.contents buf
