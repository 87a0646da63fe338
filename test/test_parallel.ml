(* The parallel engine's contracts: deterministic answers at every
   domain count, clean timeouts that leave the pool serviceable, exact
   limit/truncated accounting under chunk races, and thread-safety of
   the mutex-guarded caches the domains share. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ub l = "http://swat.lehigh.edu/onto/univ-bench.owl#" ^ l

let lubm = lazy (Datagen.Lubm.generate ~universities:1 ())
let engine = lazy (Amber.Engine.build (Lazy.force lubm))

(* The default options on [domains] domains. *)
let on domains = { Amber.Engine.Opts.default with domains }

let triangle_query =
  lazy
    (Sparql.Parser.parse
       (Printf.sprintf
          "SELECT * WHERE { ?s <%s> ?prof . ?prof <%s> ?dept . ?s <%s> ?dept }"
          (ub "advisor") (ub "worksFor") (ub "memberOf")))

let star_query =
  lazy
    (Sparql.Parser.parse
       (Printf.sprintf
          "SELECT * WHERE { ?x <%s> ?c . ?x <%s> ?d . ?x <%s> ?a }"
          (ub "takesCourse") (ub "memberOf") (ub "advisor")))

(* Without a row limit the parallel merge is deterministic: the rows —
   including their order — must be byte-identical to the sequential
   answer at every domain count, and across repeated runs. *)
let test_determinism () =
  let engine = Lazy.force engine in
  List.iter
    (fun ast ->
      let base = Amber.Engine.query engine ast in
      checkb "baseline non-empty" true (base.Amber.Engine.rows <> []);
      List.iter
        (fun domains ->
          let a = Amber.Engine.query ~opts:(on domains) engine ast in
          checkb
            (Printf.sprintf "domains=%d rows identical to sequential" domains)
            true
            (a.Amber.Engine.rows = base.Amber.Engine.rows
            && a.Amber.Engine.truncated = base.Amber.Engine.truncated))
        [ 1; 2; 3; 4 ];
      let r1 = Amber.Engine.query ~opts:(on 4) engine ast in
      let r2 = Amber.Engine.query ~opts:(on 4) engine ast in
      checkb "run-to-run identical at 4 domains" true
        (r1.Amber.Engine.rows = r2.Amber.Engine.rows))
    [ Lazy.force triangle_query; Lazy.force star_query ]

(* Matcher stats must merge to the same totals whatever the domain
   scheduling was (field-wise sums over the per-domain stats). *)
let test_stats_merge () =
  let engine = Lazy.force engine in
  let ast = Lazy.force triangle_query in
  let _, seq = Amber.Engine.query_with_stats engine ast in
  let _, par = Amber.Engine.query_with_stats ~opts:(on 4) engine ast in
  checki "candidates_scanned equal" seq.Amber.Matcher.candidates_scanned
    par.Amber.Matcher.candidates_scanned;
  checki "solutions equal" seq.Amber.Matcher.solutions
    par.Amber.Matcher.solutions;
  checki "satellite_rejections equal" seq.Amber.Matcher.satellite_rejections
    par.Amber.Matcher.satellite_rejections

(* An expired deadline must surface as Deadline.Expired from every
   domain count, and the shared pool must keep serving queries
   afterwards — no orphaned workers, no poisoned queue. *)
let test_timeout () =
  let engine = Lazy.force engine in
  let ast = Lazy.force triangle_query in
  for _ = 1 to 3 do
    List.iter
      (fun domains ->
        match
          Amber.Engine.query ~opts:(on domains) ~timeout:1e-9 engine ast
        with
        | _ -> Alcotest.fail "expected Deadline.Expired"
        | exception Amber.Deadline.Expired -> ())
      [ 2; 4 ]
  done;
  let a = Amber.Engine.query ~opts:(on 4) engine ast in
  checkb "pool serves queries after repeated timeouts" true
    (a.Amber.Engine.rows <> []);
  checkb "no orphaned workers" true
    (Amber.Domain_pool.workers (Amber.Domain_pool.global ())
    <= Amber.Domain_pool.max_workers)

(* Row limits under chunk races: the row count and the truncated flag
   are exact, and every returned row comes from the true answer set
   (which prefix is taken may differ from the sequential run). *)
let test_limit_truncated () =
  let engine = Lazy.force engine in
  let ast = Lazy.force triangle_query in
  let full = Amber.Engine.query engine ast in
  let n = List.length full.Amber.Engine.rows in
  checkb "enough rows to cut" true (n > 4);
  let full_set = List.sort_uniq compare full.Amber.Engine.rows in
  List.iter
    (fun domains ->
      let cut =
        Amber.Engine.query ~opts:(on domains) ~limit:(n / 2) engine ast
      in
      checki
        (Printf.sprintf "domains=%d limited row count" domains)
        (n / 2)
        (List.length cut.Amber.Engine.rows);
      checkb "truncated set" true cut.Amber.Engine.truncated;
      checkb "every limited row is a real solution" true
        (List.for_all
           (fun r -> List.mem r full_set)
           cut.Amber.Engine.rows);
      let uncut =
        Amber.Engine.query ~opts:(on domains) ~limit:(n + 10) engine ast
      in
      checkb "limit above total not truncated" true
        (not uncut.Amber.Engine.truncated);
      checkb "limit above total returns everything" true
        (uncut.Amber.Engine.rows = full.Amber.Engine.rows))
    [ 2; 4 ]

(* Hammer one mutex-guarded Lru from four domains: no crash, the
   amortized-eviction size bound holds, and the counters account for
   every lookup. *)
let test_lru_stress () =
  let cap = 64 in
  let lru = Amber.Lru.create ~cap in
  let mutex = Mutex.create () in
  let domains = 4 and lookups_per_domain = 5_000 in
  let worker i () =
    let rng = Datagen.Prng.create (0xca5e + i) in
    for _ = 1 to lookups_per_domain do
      let key =
        Array.init (1 + Datagen.Prng.int rng 3) (fun _ ->
            Datagen.Prng.int rng 300)
      in
      Array.sort compare key;
      Mutex.lock mutex;
      (match Amber.Lru.find lru key with
      | Some _ -> ()
      | None -> Amber.Lru.add lru key (Array.length key));
      Mutex.unlock mutex
    done
  in
  let handles = List.init domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join handles;
  checki "hits + misses = lookups"
    (domains * lookups_per_domain)
    (Amber.Lru.hits lru + Amber.Lru.misses lru);
  checkb "size bound (<= 2*cap)" true (Amber.Lru.length lru <= 2 * cap);
  checkb "cache retained something" true (Amber.Lru.length lru > 0)

(* The engine's own shared caches (attribute/synopsis LRUs behind the
   matcher's mutex) under concurrent queries from several domains —
   including nested parallel queries, so the pool is re-entered
   concurrently. Everybody must see the same answer. *)
let test_engine_concurrent_queries () =
  let engine = Lazy.force engine in
  let queries = [ Lazy.force triangle_query; Lazy.force star_query ] in
  let expected =
    List.map
      (fun ast -> (Amber.Engine.query engine ast).Amber.Engine.rows)
      queries
  in
  let worker domains () =
    List.map
      (fun ast ->
        (Amber.Engine.query ~opts:(on domains) engine ast).Amber.Engine.rows)
      queries
  in
  let handles =
    List.map (fun domains -> Domain.spawn (worker domains)) [ 1; 2; 1; 2 ]
  in
  let results = List.map Domain.join handles in
  List.iteri
    (fun i got ->
      checkb
        (Printf.sprintf "concurrent caller %d sees the sequential answer" i)
        true (got = expected))
    results

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "deterministic across domain counts" `Quick
          test_determinism;
        Alcotest.test_case "stats merge to sequential totals" `Quick
          test_stats_merge;
        Alcotest.test_case "timeout raises and pool survives" `Quick
          test_timeout;
        Alcotest.test_case "limit and truncated under chunk races" `Quick
          test_limit_truncated;
        Alcotest.test_case "lru stress from 4 domains" `Slow test_lru_stress;
        Alcotest.test_case "concurrent queries on one engine" `Slow
          test_engine_concurrent_queries;
      ] );
  ]
