(* Tests for the serve stack: the JSON codec, the wire protocol, the
   request engine's isolation contract (hostile requests get structured
   errors, never exceptions), and a real daemon over a Unix socket with
   concurrent clients. The byte-identity checks pin the determinism
   contract: a jobs=1 daemon replies with exactly the bytes
   Engine.handle produces for the same request. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* ---------- json codec ---------- *)

let roundtrip s =
  match Serve.Json.parse s with
  | Ok v -> Serve.Json.to_string v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_json_roundtrip () =
  check_string "object" {|{"a":1,"b":[true,null,"x"]}|}
    (roundtrip {| { "a" : 1, "b" : [ true, null, "x" ] } |});
  check_string "nested" {|[[[]],{"k":{"v":-2.5}}]|}
    (roundtrip {|[[[]],{"k":{"v":-2.5}}]|});
  check_string "escapes" "{\"s\":\"a\\\"b\\\\c\\nd\"}"
    (roundtrip "{\"s\":\"a\\\"b\\\\c\\nd\"}");
  (* \u escapes decode to UTF-8 and re-encode raw (canonical form). *)
  check_string "unicode escape" "\"\xc3\xa9\"" (roundtrip {|"é"|});
  check_string "integral floats print as ints" {|[0,-3,10000000]|}
    (roundtrip {|[0.0,-3.0,1e7]|});
  (* a literal that overflows to infinity prints as valid JSON *)
  check_string "overflowing numbers print as null" {|[null,null]|}
    (roundtrip {|[11e308,-1e309]|})

let test_json_rejects () =
  let bad s =
    match Serve.Json.parse s with
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "{\"a\":}";
  bad "[1,]";
  bad "[1] trailing";
  bad "\"raw \x01 control\"";
  bad "\"unterminated";
  bad "nul";
  bad (String.make 10_000 '[');
  (* totality on arbitrary bytes, not just structured near-misses *)
  let st = Random.State.make [| 0x5e71 |] in
  for _ = 1 to 500 do
    let n = Random.State.int st 64 in
    let s = String.init n (fun _ -> Char.chr (Random.State.int st 256)) in
    match Serve.Json.parse s with Ok _ | Error _ -> ()
  done

let test_json_accessors () =
  let v =
    match Serve.Json.parse {|{"op":"predict","id":7,"deep":{"k":3}}|} with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  check_bool "member" true (Serve.Json.member "op" v <> None);
  check_string "string_field" "predict"
    (Option.get (Serve.Json.string_field "op" v));
  check_int "int_field" 7 (Option.get (Serve.Json.int_field "id" v));
  check_bool "missing" true (Serve.Json.member "nope" v = None)

(* ---------- protocol ---------- *)

let test_request_parse () =
  let ok line =
    match Serve.Protocol.request_of_line line with
    | Ok r -> r
    | Error (_, e) -> Alcotest.failf "%S rejected: %s" line e.Serve.Protocol.msg
  in
  (match ok {|{"op":"predict","id":1,"lang":"JavaScript","code":"var x;"}|} with
  | Serve.Protocol.Predict { lang; code; _ } ->
      check_string "lang" "JavaScript" lang;
      check_string "code" "var x;" code
  | _ -> Alcotest.fail "expected Predict");
  (* op defaults to predict when code is present *)
  (match ok {|{"id":2,"lang":"JavaScript","code":"var y;"}|} with
  | Serve.Protocol.Predict _ -> ()
  | _ -> Alcotest.fail "expected Predict default");
  (match ok {|{"op":"ping"}|} with
  | Serve.Protocol.Ping _ -> ()
  | _ -> Alcotest.fail "expected Ping");
  let err line =
    match Serve.Protocol.request_of_line line with
    | Ok _ -> Alcotest.failf "%S unexpectedly accepted" line
    | Error (id, e) -> (id, e)
  in
  let _, e = err "not json at all" in
  check_string "bad-request kind" "bad-request" e.Serve.Protocol.kind;
  (* id survives even when the request is rejected *)
  let id, _ = err {|{"op":"similar","id":42}|} in
  check_bool "id carried" true (id = Serve.Json.Num 42.);
  let _, e = err {|{"op":"similar","id":1,"word":"x","k":0}|} in
  check_string "k range" "bad-request" e.Serve.Protocol.kind;
  (* session ops *)
  (match
     ok {|{"op":"open","id":9,"session":"b.js","lang":"JavaScript","code":"var x;"}|}
   with
  | Serve.Protocol.Open { name; lang; _ } ->
      check_string "session name" "b.js" name;
      check_string "open lang" "JavaScript" lang
  | _ -> Alcotest.fail "expected Open");
  (match ok {|{"op":"edit","code":"var y;"}|} with
  | Serve.Protocol.Edit { name; _ } ->
      check_string "default session name" "default" name
  | _ -> Alcotest.fail "expected Edit");
  (match ok {|{"op":"close"}|} with
  | Serve.Protocol.Close _ -> ()
  | _ -> Alcotest.fail "expected Close");
  let _, e = err {|{"op":"edit","id":1}|} in
  check_string "edit needs code" "bad-request" e.Serve.Protocol.kind;
  let _, e = err {|{"op":"open","id":1,"code":"var x;"}|} in
  check_string "open needs lang" "bad-request" e.Serve.Protocol.kind

let test_reply_render () =
  let line =
    Serve.Protocol.render_predictions ~id:(Serve.Json.Num 3.)
      ~lang:"JavaScript" [ ("a", "count"); ("b", "msg") ]
  in
  check_string "predictions shape"
    {|{"id":3,"ok":true,"lang":"JavaScript","count":2,"predictions":[{"var":"a","name":"count"},{"var":"b","name":"msg"}]}|}
    line;
  check_bool "reply_ok" true (Serve.Protocol.reply_ok line);
  let e =
    Serve.Protocol.render_error ~id:Serve.Json.Null
      { Serve.Protocol.kind = "size-limit"; msg = "too big"; pos = None }
  in
  check_string "error shape"
    {|{"id":null,"ok":false,"error":{"kind":"size-limit","msg":"too big"}}|} e;
  check_bool "reply_ok false" false (Serve.Protocol.reply_ok e);
  (match Serve.Protocol.reply_error e with
  | Some { Serve.Protocol.kind = "size-limit"; _ } -> ()
  | _ -> Alcotest.fail "reply_error roundtrip")

(* ---------- shared tiny model ---------- *)

let corpus ~n ~seed =
  let config = { Corpus.Gen.default with Corpus.Gen.n_files = n; seed } in
  Corpus.Gen.generate_sources config Corpus.Render.Js

let lang = Pigeon.Lang.javascript

let model =
  lazy
    (let sources = corpus ~n:40 ~seed:77 in
     let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
     let graphs =
       Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals
         sources
     in
     let config = { Crf.Train.default_config with Crf.Train.iterations = 3 } in
     Crf.Train.train ~config graphs)

let engine ?limits () =
  Serve.Engine.create ?limits ~model:(Lazy.force model) ()

let sample_code =
  "function f(a, b) { var total = a + b; var msg = 'x' + total; return msg; }\n"

let predict_line ?(id = 1) code =
  Serve.Json.to_string
    (Serve.Json.Obj
       [ ("op", Serve.Json.Str "predict");
         ("id", Serve.Json.Num (float_of_int id));
         ("lang", Serve.Json.Str "JavaScript");
         ("code", Serve.Json.Str code) ])

let parse_req line =
  match Serve.Protocol.request_of_line line with
  | Ok r -> r
  | Error (_, e) -> Alcotest.failf "request rejected: %s" e.Serve.Protocol.msg

let deep_code =
  "function f(){ return " ^ String.make 5_000 '(' ^ "1"
  ^ String.make 5_000 ')' ^ "; }\n"

(* ---------- engine isolation ---------- *)

let error_kind_of reply =
  match Serve.Protocol.reply_error reply with
  | Some e -> e.Serve.Protocol.kind
  | None -> Alcotest.failf "expected an error reply, got %s" reply

let test_engine_predict_ok () =
  let e = engine () in
  match Serve.Engine.predict_one e ~lang ~code:sample_code with
  | Ok pairs ->
      check_bool "has pairs" true (pairs <> []);
      check_bool "vars seen" true (List.mem_assoc "total" pairs)
  | Error err -> Alcotest.failf "predict failed: %s" err.Serve.Protocol.msg

let test_engine_hostile () =
  let e = engine () in
  (* pathological nesting: structured depth-limit error, no exception *)
  let reply = Serve.Engine.handle e (parse_req (predict_line deep_code)) in
  check_string "depth" "depth-limit" (error_kind_of reply);
  (* oversized input against a small per-request budget *)
  let tiny =
    { (Serve.Engine.limits e) with Lexkit.max_input_bytes = 64 }
  in
  let e_small = engine ~limits:tiny () in
  let big = predict_line (String.make 1_000 ' ' ^ sample_code) in
  let reply = Serve.Engine.handle e_small (parse_req big) in
  check_string "oversized" "size-limit" (error_kind_of reply);
  (* step-budget exhaustion: valid code, absurdly small budget *)
  let starved =
    { (Serve.Engine.limits e) with Lexkit.max_parse_steps = 5 }
  in
  let e_starved = engine ~limits:starved () in
  let reply = Serve.Engine.handle e_starved (parse_req (predict_line sample_code)) in
  check_string "steps" "size-limit" (error_kind_of reply);
  (* unknown language *)
  let reply =
    Serve.Engine.handle e
      (parse_req {|{"op":"predict","id":1,"lang":"COBOL","code":"x"}|})
  in
  check_string "unknown lang" "bad-request" (error_kind_of reply);
  (* syntactically broken input *)
  let reply =
    Serve.Engine.handle e (parse_req (predict_line "function {{{ ???"))
  in
  check_string "parse error" "parse-error" (error_kind_of reply)

let test_engine_batch_isolation () =
  let e = engine () in
  let good1 = parse_req (predict_line ~id:1 sample_code) in
  let hostile = parse_req (predict_line ~id:2 deep_code) in
  let good2 = parse_req (predict_line ~id:3 "var q = 1; var r = q + 2;\n") in
  let batch = Serve.Engine.handle_batch e [ good1; hostile; good2 ] in
  check_int "three replies" 3 (List.length batch);
  let r1, r2, r3 =
    match batch with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  check_bool "good1 ok" true (Serve.Protocol.reply_ok r1);
  check_string "hostile isolated" "depth-limit" (error_kind_of r2);
  check_bool "good2 ok" true (Serve.Protocol.reply_ok r3);
  (* byte-identity: batched replies equal the one-shot replies *)
  check_string "batch = one-shot (1)" (Serve.Engine.handle e good1) r1;
  check_string "batch = one-shot (3)" (Serve.Engine.handle e good2) r3

let test_engine_batch_pool () =
  (* same bytes whether prediction fans out over a pool or not *)
  let e = engine () in
  let reqs =
    List.init 6 (fun i ->
        parse_req
          (predict_line ~id:i
             (Printf.sprintf "var v%d = %d; var w = v%d + 1;\n" i i i)))
  in
  let seq = Serve.Engine.handle_batch e reqs in
  let pool = Parallel.create ~jobs:2 () in
  let par = Serve.Engine.handle_batch ~pool e reqs in
  Parallel.shutdown pool;
  List.iter2 (check_string "pooled batch byte-identical") seq par

(* ---------- daemon over a unix socket ---------- *)

let temp_sock () =
  let path =
    Filename.temp_file "pigeon-serve-test" ".sock"
  in
  Sys.remove path;
  path

let with_daemon ?pool ?(max_batch = 8) ?(max_line = 1024 * 1024) ?(max_queue = 0)
    ?(max_conns = 0) ?idle_timeout ?(faults = Serve.Faults.disabled) e f =
  let path = temp_sock () in
  let cfg =
    {
      Serve.Server.default_config with
      Serve.Server.unix_socket = Some path;
      max_batch;
      max_line;
      max_queue;
      max_conns;
      idle_timeout =
        (match idle_timeout with
        | Some s -> s
        | None -> Serve.Server.default_config.Serve.Server.idle_timeout);
      faults;
    }
  in
  let t = Serve.Server.start ?pool e cfg in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop t;
      Serve.Server.wait t;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path t)

let test_daemon_byte_identity () =
  (* jobs=1 daemon (no pool): replies byte-identical to Engine.handle *)
  let e = engine () in
  with_daemon e (fun path _t ->
      let c = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let lines =
        [ predict_line ~id:10 sample_code;
          predict_line ~id:11 "var alpha = 3; var beta = alpha * 2;\n";
          predict_line ~id:12 deep_code ]
      in
      List.iter
        (fun line ->
          let daemon_reply =
            match Serve.Client.request c line with
            | Some r -> r
            | None -> Alcotest.fail "daemon closed connection"
          in
          let direct = Serve.Engine.handle e (parse_req line) in
          check_string "daemon = direct" direct daemon_reply)
        lines)

let test_daemon_concurrent_isolation () =
  (* 4 concurrent clients, each mixing hostile and well-formed
     requests: every request answered, hostile ones structurally, and
     the daemon survives to serve a final request. *)
  let e = engine () in
  let pool = Parallel.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
  with_daemon ~pool e (fun path _t ->
      let n_clients = 4 and per_client = 6 in
      let failures = Queue.create () in
      let fmutex = Mutex.create () in
      let fail msg =
        Mutex.lock fmutex;
        Queue.add msg failures;
        Mutex.unlock fmutex
      in
      let client k =
        let c = Serve.Client.connect_unix path in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        for i = 0 to per_client - 1 do
          let id = (k * 100) + i in
          let hostile = (i + k) mod 3 = 0 in
          let line =
            if hostile then predict_line ~id deep_code
            else
              predict_line ~id
                (Printf.sprintf "var a%d = %d; var b = a%d + 1;\n" i i i)
          in
          match Serve.Client.request c line with
          | None -> fail (Printf.sprintf "client %d: connection dropped" k)
          | Some reply ->
              let ok = Serve.Protocol.reply_ok reply in
              if hostile && ok then
                fail (Printf.sprintf "client %d: hostile request %d ok" k i);
              if (not hostile) && not ok then
                fail
                  (Printf.sprintf "client %d req %d: unexpected error %s" k i
                     reply);
              (* replies are correlated: ours, not another client's *)
              (match
                 Serve.Protocol.reply_error reply, Serve.Json.parse reply
               with
              | _, Ok v ->
                  if Serve.Json.int_field "id" v <> Some id then
                    fail (Printf.sprintf "client %d: wrong id in reply" k)
              | _, Error _ -> fail "unparseable reply")
        done
      in
      let threads = List.init n_clients (fun k -> Thread.create client k) in
      List.iter Thread.join threads;
      check_int "no failures"
        0
        (Queue.length failures);
      (* the daemon is still alive after the burst *)
      let c = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      match Serve.Client.request c {|{"op":"ping","id":99}|} with
      | Some r -> check_bool "still serving" true (Serve.Protocol.reply_ok r)
      | None -> Alcotest.fail "daemon died during the burst")

let test_daemon_garbage_and_disconnect () =
  let e = engine () in
  with_daemon e (fun path _t ->
      (* garbage line: structured bad-request, connection stays usable *)
      let c = Serve.Client.connect_unix path in
      (match Serve.Client.request c "this is not json" with
      | Some r -> check_string "garbage" "bad-request" (error_kind_of r)
      | None -> Alcotest.fail "no reply to garbage");
      (match Serve.Client.request c {|{"op":"ping","id":1}|} with
      | Some r -> check_bool "conn survives" true (Serve.Protocol.reply_ok r)
      | None -> Alcotest.fail "connection dropped after garbage");
      Serve.Client.close c;
      (* disconnect mid-line: daemon ignores the partial request *)
      let c2 = Serve.Client.connect_unix path in
      Serve.Client.send_line c2 {|{"op":"predict","id":2,"la|};
      Serve.Client.close c2;
      (* oversized request line: error reply, then the server closes *)
      let e2 = engine () in
      ignore e2;
      let c3 = Serve.Client.connect_unix path in
      (match Serve.Client.request c3 {|{"op":"ping","id":3}|} with
      | Some r -> check_bool "alive after disconnect" true (Serve.Protocol.reply_ok r)
      | None -> Alcotest.fail "daemon died after mid-line disconnect");
      Serve.Client.close c3)

let test_daemon_oversized_line () =
  let e = engine () in
  with_daemon ~max_line:4096 e (fun path _t ->
      let c = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let huge = predict_line (String.make 100_000 'x') in
      (match Serve.Client.request c huge with
      | Some r -> check_string "framing guard" "bad-request" (error_kind_of r)
      | None -> Alcotest.fail "no overflow reply");
      (* a fresh connection still works *)
      let c2 = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c2) @@ fun () ->
      match Serve.Client.request c2 {|{"op":"ping","id":1}|} with
      | Some r -> check_bool "daemon alive" true (Serve.Protocol.reply_ok r)
      | None -> Alcotest.fail "daemon died on oversized line")

let test_daemon_shutdown_request () =
  let e = engine () in
  let path = temp_sock () in
  let cfg =
    { Serve.Server.default_config with Serve.Server.unix_socket = Some path }
  in
  let t = Serve.Server.start e cfg in
  let c = Serve.Client.connect_unix path in
  (match Serve.Client.request c {|{"op":"shutdown","id":5}|} with
  | Some r ->
      check_string "stopping reply" {|{"id":5,"ok":true,"stopping":true}|} r
  | None -> Alcotest.fail "no shutdown reply");
  Serve.Client.close c;
  Serve.Server.wait t;
  check_bool "stopped" true (Serve.Server.stopped t);
  check_bool "socket unlinked" false (Sys.file_exists path)

let test_daemon_stats () =
  let e = engine () in
  with_daemon e (fun path t ->
      let c = Serve.Client.connect_unix path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      ignore (Serve.Client.request c (predict_line sample_code));
      ignore (Serve.Client.request c "garbage");
      (match Serve.Client.request c {|{"op":"stats","id":1}|} with
      | Some r -> check_bool "stats ok" true (Serve.Protocol.reply_ok r)
      | None -> Alcotest.fail "no stats reply");
      let s = Serve.Server.stats t in
      check_bool "served counted" true (s.Serve.Protocol.served >= 2);
      check_bool "errors counted" true (s.Serve.Protocol.errors >= 1);
      (* the overload/lifecycle counters exist and are sane at rest *)
      check_int "nothing shed" 0 s.Serve.Protocol.shed;
      check_int "no reloads yet" 0 s.Serve.Protocol.reloads;
      check_int "queue empty at rest" 0 s.Serve.Protocol.queue_depth;
      check_bool "one connection open" true (s.Serve.Protocol.conns >= 1);
      check_int "sequential jobs" 1 s.Serve.Protocol.jobs)

(* ---------- fault injection knobs ---------- *)

let test_faults_unit () =
  (match Serve.Faults.of_string "delay_ms=3,engine_every=7" with
  | Ok f ->
      check_int "delay" 3 f.Serve.Faults.pre_batch_delay_ms;
      check_int "engine" 7 f.Serve.Faults.engine_error_every;
      check_int "torn stays off" 0 f.Serve.Faults.torn_reply_every;
      check_bool "enabled" true (Serve.Faults.enabled f)
  | Error e -> Alcotest.fail e);
  (match Serve.Faults.of_string "" with
  | Ok f -> check_bool "empty = disabled" false (Serve.Faults.enabled f)
  | Error e -> Alcotest.fail e);
  (* fail fast on typos: a silently self-disabling chaos knob would
     fake a passing run *)
  (match Serve.Faults.of_string "dleay_ms=3" with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error _ -> ());
  (match Serve.Faults.of_string "delay_ms=soon" with
  | Ok _ -> Alcotest.fail "non-integer accepted"
  | Error _ -> ());
  (* deterministic cadence: every Nth event fires, starting at the Nth *)
  let st =
    Serve.Faults.state
      { Serve.Faults.disabled with Serve.Faults.engine_error_every = 3 }
  in
  let fired =
    List.init 9 (fun _ -> Serve.Faults.fire st Serve.Faults.Engine_error)
  in
  Alcotest.(check (list bool))
    "every 3rd"
    [ false; false; true; false; false; true; false; false; true ]
    fired;
  check_bool "other kinds independent" false
    (Serve.Faults.fire st Serve.Faults.Torn_reply)

(* ---------- overload and lifecycle ---------- *)

let test_daemon_overload_shed () =
  (* max_queue=1 and a deliberately slow batcher: a pipelined burst
     must answer every request — some ok, at least one shed with a
     structured "overloaded" error — and never wedge or drop. *)
  let e = engine () in
  let faults =
    { Serve.Faults.disabled with Serve.Faults.pre_batch_delay_ms = 20 }
  in
  with_daemon ~max_batch:1 ~max_queue:1 ~faults e (fun path t ->
      let c = Serve.Client.connect_unix ~read_timeout:30. path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let n = 12 in
      for i = 1 to n do
        Serve.Client.send_line c (predict_line ~id:i sample_code)
      done;
      let oks = ref 0 and sheds = ref 0 in
      for _ = 1 to n do
        match Serve.Client.recv_line c with
        | Some r when Serve.Protocol.reply_ok r -> incr oks
        | Some r when error_kind_of r = "overloaded" -> incr sheds
        | Some r -> Alcotest.failf "unexpected reply %s" r
        | None -> Alcotest.fail "connection dropped mid-burst"
      done;
      check_int "every request answered" n (!oks + !sheds);
      check_bool "some served" true (!oks > 0);
      check_bool "some shed" true (!sheds > 0);
      let s = Serve.Server.stats t in
      check_bool "sheds counted" true (s.Serve.Protocol.shed >= !sheds);
      check_bool "high-water bounded" true (s.Serve.Protocol.queue_hw <= 1))

let test_daemon_idle_timeout () =
  (* A connection that goes silent past its idle budget gets a
     best-effort "timeout" error line, then EOF — and the daemon keeps
     serving everyone else. *)
  let e = engine () in
  with_daemon ~idle_timeout:0.2 e (fun path _t ->
      let c = Serve.Client.connect_unix ~read_timeout:10. path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      (match Serve.Client.recv_line c with
      | Some line ->
          check_string "timeout line" "timeout" (error_kind_of line)
      | None -> Alcotest.fail "closed without the timeout line");
      (match Serve.Client.recv_line c with
      | None -> ()
      | Some l -> Alcotest.failf "expected EOF after timeout, got %s" l);
      (* a lively client is unaffected *)
      let c2 = Serve.Client.connect_unix ~read_timeout:10. path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c2) @@ fun () ->
      match Serve.Client.request c2 {|{"op":"ping","id":1}|} with
      | Some r -> check_bool "still serving" true (Serve.Protocol.reply_ok r)
      | None -> Alcotest.fail "daemon died with the idle connection")

let test_daemon_max_conns () =
  (* Connection cap: the excess connection gets one "overloaded" line
     and a close; the resident connection is untouched. *)
  let e = engine () in
  with_daemon ~max_conns:1 e (fun path t ->
      let c1 = Serve.Client.connect_unix ~read_timeout:10. path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c1) @@ fun () ->
      (match Serve.Client.request c1 {|{"op":"ping","id":1}|} with
      | Some r -> check_bool "first conn ok" true (Serve.Protocol.reply_ok r)
      | None -> Alcotest.fail "first connection dropped");
      let c2 = Serve.Client.connect_unix ~read_timeout:10. path in
      Fun.protect ~finally:(fun () -> Serve.Client.close c2) @@ fun () ->
      (match Serve.Client.recv_line c2 with
      | Some line -> check_string "capped" "overloaded" (error_kind_of line)
      | None -> Alcotest.fail "no rejection line");
      (match Serve.Client.recv_line c2 with
      | None -> ()
      | Some l -> Alcotest.failf "expected EOF after rejection, got %s" l);
      (match Serve.Client.request c1 {|{"op":"ping","id":2}|} with
      | Some r -> check_bool "resident conn fine" true (Serve.Protocol.reply_ok r)
      | None -> Alcotest.fail "resident connection dropped");
      let s = Serve.Server.stats t in
      check_bool "rejection counted as shed" true (s.Serve.Protocol.shed >= 1))

(* ---------- hot model reload ---------- *)

let model_b =
  lazy
    (let sources = corpus ~n:36 ~seed:99 in
     let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
     let graphs =
       Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals
         sources
     in
     let config = { Crf.Train.default_config with Crf.Train.iterations = 3 } in
     Crf.Train.train ~config graphs)

let save_model m =
  let path = Filename.temp_file "pigeon-serve-model" ".crf" in
  Crf.Serialize.save m path;
  path

let test_engine_reload_errors () =
  (* no path known, bad path, and the old model surviving both *)
  let e = engine () in
  (match Serve.Engine.reload e () with
  | Error err -> check_string "pathless" "bad-request" err.Serve.Protocol.kind
  | Ok _ -> Alcotest.fail "reload without any path must fail");
  check_bool "not reloadable" false (Serve.Engine.reloadable e);
  (match Serve.Engine.reload e ~model_path:"/nonexistent/model.crf" () with
  | Error err -> check_string "missing file" "io-error" err.Serve.Protocol.kind
  | Ok _ -> Alcotest.fail "reload from a missing file must fail");
  (* a failed reload leaves the engine serving *)
  match Serve.Engine.predict_one e ~lang ~code:sample_code with
  | Ok pairs -> check_bool "still predicting" true (pairs <> [])
  | Error err -> Alcotest.failf "engine broken after failed reload: %s" err.Serve.Protocol.msg

let test_daemon_reload () =
  let path_a = save_model (Lazy.force model) in
  let path_b = save_model (Lazy.force model_b) in
  let e =
    Serve.Engine.create ~model_path:path_a
      ~model:(Crf.Serialize.load_exn path_a) ()
  in
  (* reference engines, loaded fresh from the same files *)
  let ref_b =
    Serve.Engine.create ~model_path:path_b
      ~model:(Crf.Serialize.load_exn path_b) ()
  in
  check_bool "reloadable" true (Serve.Engine.reloadable e);
  with_daemon e (fun sock t ->
      let c = Serve.Client.connect_unix ~read_timeout:30. sock in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let probe = predict_line ~id:21 sample_code in
      (* swap to model B over the wire *)
      let reload_req =
        Serve.Json.to_string
          (Serve.Json.Obj
             [ ("op", Serve.Json.Str "reload");
               ("id", Serve.Json.Num 22.);
               ("model", Serve.Json.Str path_b) ])
      in
      (match Serve.Client.request c reload_req with
      | Some r ->
          check_string "reloaded reply"
            {|{"id":22,"ok":true,"reloaded":true}|} r
      | None -> Alcotest.fail "no reload reply");
      (match Serve.Client.request c probe with
      | Some r ->
          check_string "serves model B, byte-identical to a fresh load"
            (Serve.Engine.handle ref_b (parse_req probe))
            r
      | None -> Alcotest.fail "no post-reload reply");
      (* a bad reload answers structurally and keeps the old model *)
      let bad_req =
        {|{"op":"reload","id":23,"model":"/nonexistent/model.crf"}|}
      in
      (match Serve.Client.request c bad_req with
      | Some r -> check_string "bad reload" "io-error" (error_kind_of r)
      | None -> Alcotest.fail "no bad-reload reply");
      (match Serve.Client.request c probe with
      | Some r ->
          check_string "old (= B) model keeps serving"
            (Serve.Engine.handle ref_b (parse_req probe))
            r
      | None -> Alcotest.fail "no post-bad-reload reply");
      (* path-less reload (the SIGHUP semantics): re-reads the last
         successfully loaded paths *)
      (match Serve.Client.request c {|{"op":"reload","id":24}|} with
      | Some r ->
          check_string "pathless reload ok"
            {|{"id":24,"ok":true,"reloaded":true}|} r
      | None -> Alcotest.fail "no pathless-reload reply");
      let s = Serve.Server.stats t in
      check_int "successful reloads counted" 2 s.Serve.Protocol.reloads);
  Sys.remove path_a;
  Sys.remove path_b

(* ---------- multi-model registry ---------- *)

let predict_line_for ?(id = 1) ~model code =
  Serve.Json.to_string
    (Serve.Json.Obj
       [ ("op", Serve.Json.Str "predict");
         ("id", Serve.Json.Num (float_of_int id));
         ("lang", Serve.Json.Str "JavaScript");
         ("code", Serve.Json.Str code);
         ("model", Serve.Json.Str model) ])

let find_stat name stats =
  match
    List.find_opt (fun m -> m.Serve.Protocol.ms_name = name) stats
  with
  | Some m -> m
  | None ->
      Alcotest.failf "no registry entry %S (have: %s)" name
        (String.concat ", "
           (List.map (fun m -> m.Serve.Protocol.ms_name) stats))

let test_engine_registry_routing () =
  let path_b = save_model (Lazy.force model_b) in
  let e = engine () in
  (match Serve.Engine.reload e ~name:"b" ~model_path:path_b () with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "load b: %s" err.Serve.Protocol.msg);
  (* ["model":"b"] routes to B, byte-identical to a fresh engine built
     on the same file; no model field still serves the default *)
  let ref_b =
    Serve.Engine.create ~model:(Crf.Serialize.load_exn path_b) ()
  in
  let named = predict_line_for ~id:41 ~model:"b" sample_code in
  let plain = predict_line ~id:41 sample_code in
  check_string "named routes to B"
    (Serve.Engine.handle ref_b (parse_req plain))
    (Serve.Engine.handle e (parse_req named));
  check_string "plain still serves the default"
    (Serve.Engine.handle (engine ()) (parse_req plain))
    (Serve.Engine.handle e (parse_req plain));
  (* unknown model: structured bad-request naming the loaded entries *)
  let reply =
    Serve.Engine.handle e (parse_req (predict_line_for ~model:"nope" sample_code))
  in
  check_string "unknown model" "bad-request" (error_kind_of reply);
  (* a mixed batch keeps per-request routing and request order *)
  let reqs =
    [ parse_req (predict_line ~id:1 sample_code);
      parse_req (predict_line_for ~id:2 ~model:"b" sample_code);
      parse_req (predict_line_for ~id:3 ~model:"nope" sample_code) ]
  in
  (match Serve.Engine.handle_batch e reqs with
  | [ r1; r2; r3 ] ->
      check_string "batch default = one-shot"
        (Serve.Engine.handle e (List.nth reqs 0)) r1;
      check_string "batch named = one-shot"
        (Serve.Engine.handle e (List.nth reqs 1)) r2;
      check_string "batch unknown isolated" "bad-request" (error_kind_of r3)
  | rs -> Alcotest.failf "expected 3 replies, got %d" (List.length rs));
  Sys.remove path_b

let test_engine_unload_set_default () =
  let path_b = save_model (Lazy.force model_b) in
  let e = engine () in
  (match Serve.Engine.unload e "default" with
  | Error err ->
      check_string "cannot unload the default" "bad-request"
        err.Serve.Protocol.kind
  | Ok () -> Alcotest.fail "unloading the default must fail");
  (match Serve.Engine.set_default e "ghost" with
  | Error err -> check_string "unknown default" "bad-request" err.Serve.Protocol.kind
  | Ok () -> Alcotest.fail "set_default on an unknown entry must fail");
  (match Serve.Engine.reload e ~name:"b" ~model_path:path_b () with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "load b: %s" err.Serve.Protocol.msg);
  (match Serve.Engine.set_default e "b" with
  | Ok () -> ()
  | Error err -> Alcotest.failf "set_default b: %s" err.Serve.Protocol.msg);
  (* plain requests now serve B *)
  let ref_b =
    Serve.Engine.create ~model:(Crf.Serialize.load_exn path_b) ()
  in
  let plain = predict_line ~id:51 sample_code in
  check_string "default switched to B"
    (Serve.Engine.handle ref_b (parse_req plain))
    (Serve.Engine.handle e (parse_req plain));
  (* the old default is now unloadable, and its name then 404s *)
  (match Serve.Engine.unload e "default" with
  | Ok () -> ()
  | Error err -> Alcotest.failf "unload default: %s" err.Serve.Protocol.msg);
  let reply =
    Serve.Engine.handle e
      (parse_req (predict_line_for ~model:"default" sample_code))
  in
  check_string "unloaded entry is gone" "bad-request" (error_kind_of reply);
  check_int "one entry left" 1 (List.length (Serve.Engine.models e));
  Sys.remove path_b

let test_engine_models_stats () =
  let path_b = save_model (Lazy.force model_b) in
  let e = engine () in
  (match Serve.Engine.reload e ~name:"b" ~model_path:path_b () with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "load b: %s" err.Serve.Protocol.msg);
  let stats = Serve.Engine.models e in
  check_int "two entries" 2 (List.length stats);
  let d = find_stat "default" stats in
  check_bool "default flagged" true d.Serve.Protocol.ms_default;
  check_string "in-memory default is heap" "heap" d.Serve.Protocol.ms_storage;
  check_int "heap maps nothing" 0 d.Serve.Protocol.ms_mapped_bytes;
  let b = find_stat "b" stats in
  check_bool "b not default" false b.Serve.Protocol.ms_default;
  check_bool "b loaded" true b.Serve.Protocol.ms_loaded;
  check_string "b mapped" "mapped" b.Serve.Protocol.ms_storage;
  check_int "b maps the whole file" (Unix.stat path_b).Unix.st_size
    b.Serve.Protocol.ms_mapped_bytes;
  check_bool "b path recorded" true
    (b.Serve.Protocol.ms_model_path = Some path_b);
  check_int "never used yet" (-1) b.Serve.Protocol.ms_last_used_ms;
  ignore
    (Serve.Engine.handle e (parse_req (predict_line_for ~model:"b" sample_code)));
  let b = find_stat "b" (Serve.Engine.models e) in
  check_bool "last-used set after a request" true
    (b.Serve.Protocol.ms_last_used_ms >= 0);
  Sys.remove path_b

let test_engine_eviction_and_revival () =
  let path_b = save_model (Lazy.force model_b) in
  (* budget of one byte: at most the just-loaded entry stays mapped *)
  let e =
    Serve.Engine.create ~max_mapped_bytes:1 ~model:(Lazy.force model) ()
  in
  (match Serve.Engine.reload e ~name:"b" ~model_path:path_b () with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "load b: %s" err.Serve.Protocol.msg);
  (match Serve.Engine.reload e ~name:"c" ~model_path:path_b () with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "load c: %s" err.Serve.Protocol.msg);
  (* loading c evicted b (the only non-default mapped candidate) *)
  let b = find_stat "b" (Serve.Engine.models e) in
  check_bool "b evicted" false b.Serve.Protocol.ms_loaded;
  check_string "b storage" "unloaded" b.Serve.Protocol.ms_storage;
  check_int "b eviction counted" 1 b.Serve.Protocol.ms_evictions;
  check_bool "b keeps its path" true
    (b.Serve.Protocol.ms_model_path = Some path_b);
  (* naming the evicted entry revives it transparently, with the same
     bytes a fresh load would serve; c is evicted in turn *)
  let ref_b =
    Serve.Engine.create ~model:(Crf.Serialize.load_exn path_b) ()
  in
  let named = predict_line_for ~id:61 ~model:"b" sample_code in
  let plain = predict_line ~id:61 sample_code in
  check_string "revived b serves the same bytes"
    (Serve.Engine.handle ref_b (parse_req plain))
    (Serve.Engine.handle e (parse_req named));
  let stats = Serve.Engine.models e in
  check_bool "b live again" true (find_stat "b" stats).Serve.Protocol.ms_loaded;
  check_bool "c evicted in turn" false
    (find_stat "c" stats).Serve.Protocol.ms_loaded;
  (* the default (heap, zero mapped bytes) is never an eviction victim *)
  check_bool "default untouched" true
    (find_stat "default" stats).Serve.Protocol.ms_loaded;
  check_int "default never evicted" 0
    (find_stat "default" stats).Serve.Protocol.ms_evictions;
  Sys.remove path_b

let test_daemon_registry () =
  let path_a = save_model (Lazy.force model) in
  let path_b = save_model (Lazy.force model_b) in
  let e =
    Serve.Engine.create ~model_path:path_a
      ~model:(Crf.Serialize.load_exn path_a) ()
  in
  let ref_b =
    Serve.Engine.create ~model_path:path_b
      ~model:(Crf.Serialize.load_exn path_b) ()
  in
  with_daemon e (fun sock t ->
      let c = Serve.Client.connect_unix ~read_timeout:30. sock in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let req line =
        match Serve.Client.request c line with
        | Some r -> r
        | None -> Alcotest.failf "daemon closed on %s" line
      in
      (* load B under a name over the wire *)
      let load_b =
        Serve.Json.to_string
          (Serve.Json.Obj
             [ ("op", Serve.Json.Str "reload");
               ("id", Serve.Json.Num 70.);
               ("name", Serve.Json.Str "b");
               ("model", Serve.Json.Str path_b) ])
      in
      check_string "named load reply" {|{"id":70,"ok":true,"reloaded":true}|}
        (req load_b);
      (* route by name; the default is untouched *)
      check_string "predict by name"
        (Serve.Engine.handle ref_b (parse_req (predict_line ~id:71 sample_code)))
        (req (predict_line_for ~id:71 ~model:"b" sample_code));
      check_string "unknown name over the wire" "bad-request"
        (error_kind_of (req (predict_line_for ~id:72 ~model:"zzz" sample_code)));
      (* set_default / unload wire forms *)
      check_string "set_default reply" {|{"id":73,"ok":true,"default":"b"}|}
        (req {|{"op":"reload","id":73,"set_default":"b"}|});
      check_string "plain predict now serves B"
        (Serve.Engine.handle ref_b (parse_req (predict_line ~id:74 sample_code)))
        (req (predict_line ~id:74 sample_code));
      check_string "unload reply" {|{"id":75,"ok":true,"unloaded":"default"}|}
        (req {|{"op":"reload","id":75,"unload":"default"}|});
      check_string "unloading the default refused" "bad-request"
        (error_kind_of (req {|{"op":"reload","id":76,"unload":"b"}|}));
      check_string "exclusive forms refused" "bad-request"
        (error_kind_of
           (req {|{"op":"reload","id":77,"unload":"b","set_default":"b"}|}));
      (* per-model stats over the wire *)
      let stats_reply = req {|{"op":"stats","id":78}|} in
      let contains needle =
        let n = String.length needle and h = String.length stats_reply in
        let rec go i =
          i + n <= h && (String.sub stats_reply i n = needle || go (i + 1))
        in
        go 0
      in
      check_bool "stats lists models" true (contains {|"models":[|});
      check_bool "stats names b as default" true
        (contains {|"name":"b","default":true|});
      check_bool "stats reports storage" true (contains {|"storage":|});
      let s = Serve.Server.stats t in
      check_int "only the load bumped the reload counter" 1
        s.Serve.Protocol.reloads;
      check_int "one entry left" 1 (List.length s.Serve.Protocol.models));
  Sys.remove path_a;
  Sys.remove path_b

(* ---------- edit sessions ---------- *)

let session_line op ?(session = "default") ~id fields =
  Serve.Json.to_string
    (Serve.Json.Obj
       ([ ("op", Serve.Json.Str op);
          ("id", Serve.Json.Num (float_of_int id));
          ("session", Serve.Json.Str session) ]
       @ fields))

let open_line ?session ~id code =
  session_line "open" ?session ~id
    [ ("lang", Serve.Json.Str "JavaScript"); ("code", Serve.Json.Str code) ]

let edit_line ?session ~id code =
  session_line "edit" ?session ~id [ ("code", Serve.Json.Str code) ]

let close_line ?session ~id () = session_line "close" ?session ~id []

let one ?(conn = 1) e line =
  match Serve.Engine.handle_batch_conn e [ (conn, parse_req line) ] with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)

(* A session reply is the one-shot predict reply with a trailing
   "session" field — the byte-prefix contract the live smoke relies
   on. *)
let with_session_suffix ?(session = "default") oneshot =
  String.sub oneshot 0 (String.length oneshot - 1)
  ^ {|,"session":"|} ^ session ^ {|"}|}

let reply_ok = Serve.Protocol.reply_ok

let test_session_byte_identity () =
  let e = engine () in
  let code2 = "function g(a) { var sum = a + 1; return sum; }\n" in
  let r_open = one e (open_line ~id:1 sample_code) in
  let oneshot = Serve.Engine.handle e (parse_req (predict_line ~id:1 sample_code)) in
  check_string "open = one-shot + session" (with_session_suffix oneshot) r_open;
  let r_edit = one e (edit_line ~id:2 code2) in
  let oneshot2 = Serve.Engine.handle e (parse_req (predict_line ~id:2 code2)) in
  check_string "edit = one-shot + session" (with_session_suffix oneshot2) r_edit;
  check_string "close reports edit count"
    {|{"id":3,"ok":true,"closed":"default","edits":1}|}
    (one e (close_line ~id:3 ()))

let test_session_edit_stream () =
  let e = engine () in
  let config =
    { Corpus.Gen.default with Corpus.Gen.min_funcs = 3; max_funcs = 3; seed = 11 }
  in
  match Corpus.Gen.edit_trace ~steps:6 config Corpus.Render.Js with
  | [] -> assert false
  | first :: edits ->
      let expect id src =
        with_session_suffix
          (Serve.Engine.handle e (parse_req (predict_line ~id src)))
      in
      check_string "step 0" (expect 0 first) (one e (open_line ~id:0 first));
      List.iteri
        (fun i src ->
          let id = i + 1 in
          check_string
            (Printf.sprintf "step %d" id)
            (expect id src)
            (one e (edit_line ~id src)))
        edits

let test_session_no_session () =
  let e = engine () in
  check_string "edit unopened" "no-session"
    (error_kind_of (one e (edit_line ~id:1 sample_code)));
  check_string "close unopened" "no-session"
    (error_kind_of (one e (close_line ~id:2 ())));
  check_bool "open ok" true (reply_ok (one e (open_line ~id:3 sample_code)));
  check_bool "close ok" true (reply_ok (one e (close_line ~id:4 ())));
  check_string "edit after close" "no-session"
    (error_kind_of (one e (edit_line ~id:5 sample_code)))

let test_session_conn_isolation () =
  let e = engine () in
  check_bool "conn 1 open" true
    (reply_ok (one ~conn:1 e (open_line ~id:1 sample_code)));
  (* the same session name on another connection is a different session *)
  check_string "conn 2 blind" "no-session"
    (error_kind_of (one ~conn:2 e (edit_line ~id:2 sample_code)));
  check_bool "conn 2 open" true
    (reply_ok (one ~conn:2 e (open_line ~id:3 sample_code)));
  Serve.Engine.drop_conn e ~conn:1;
  check_string "conn 1 dropped" "no-session"
    (error_kind_of (one ~conn:1 e (edit_line ~id:4 sample_code)));
  check_bool "conn 2 survives" true
    (reply_ok (one ~conn:2 e (edit_line ~id:5 sample_code)))

let test_session_hostile_edit () =
  let e = engine () in
  check_bool "open" true (reply_ok (one e (open_line ~id:1 sample_code)));
  (* a hostile edit costs its own request an error, not the session *)
  check_string "deep edit" "depth-limit"
    (error_kind_of (one e (edit_line ~id:2 deep_code)));
  check_string "garbage edit" "parse-error"
    (error_kind_of (one e (edit_line ~id:3 "function {{{ ???")));
  check_bool "session survives" true
    (reply_ok (one e (edit_line ~id:4 sample_code)));
  check_string "only good edits counted"
    {|{"id":5,"ok":true,"closed":"default","edits":1}|}
    (one e (close_line ~id:5 ()))

let test_session_eviction () =
  let e =
    Serve.Engine.create ~model:(Lazy.force model) ~max_session_bytes:1 ()
  in
  check_bool "open a" true
    (reply_ok (one e (open_line ~session:"a" ~id:1 sample_code)));
  (* opening b pushes the total over the 1-byte budget: a, least
     recently used, is evicted — never b, which just extracted *)
  check_bool "open b" true
    (reply_ok (one e (open_line ~session:"b" ~id:2 sample_code)));
  check_string "a evicted" "no-session"
    (error_kind_of (one e (edit_line ~session:"a" ~id:3 sample_code)));
  check_bool "b lives" true
    (reply_ok (one e (edit_line ~session:"b" ~id:4 sample_code)));
  (* re-opening revives the evicted name *)
  check_bool "a re-opens" true
    (reply_ok (one e (open_line ~session:"a" ~id:5 sample_code)));
  let sessions, agg = Serve.Engine.session_stats e in
  check_bool "live sessions" true (List.length sessions >= 1);
  check_bool "whole-session evictions counted" true
    (agg.Serve.Protocol.cache_evictions >= 1)

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request parse" `Quick test_request_parse;
          Alcotest.test_case "reply render" `Quick test_reply_render;
        ] );
      ( "faults",
        [ Alcotest.test_case "parse and cadence" `Quick test_faults_unit ] );
      ( "engine",
        [
          Alcotest.test_case "predict ok" `Quick test_engine_predict_ok;
          Alcotest.test_case "hostile isolation" `Quick test_engine_hostile;
          Alcotest.test_case "batch isolation" `Quick test_engine_batch_isolation;
          Alcotest.test_case "pool byte-identity" `Quick test_engine_batch_pool;
          Alcotest.test_case "reload errors" `Quick test_engine_reload_errors;
        ] );
      ( "registry",
        [
          Alcotest.test_case "model routing" `Quick
            test_engine_registry_routing;
          Alcotest.test_case "unload and set_default" `Quick
            test_engine_unload_set_default;
          Alcotest.test_case "per-model stats" `Quick test_engine_models_stats;
          Alcotest.test_case "eviction and revival" `Quick
            test_engine_eviction_and_revival;
          Alcotest.test_case "wire ops" `Quick test_daemon_registry;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "byte-identity" `Quick test_session_byte_identity;
          Alcotest.test_case "edit stream" `Quick test_session_edit_stream;
          Alcotest.test_case "no-session" `Quick test_session_no_session;
          Alcotest.test_case "connection isolation" `Quick
            test_session_conn_isolation;
          Alcotest.test_case "hostile edit" `Quick test_session_hostile_edit;
          Alcotest.test_case "eviction" `Quick test_session_eviction;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "byte-identity" `Quick test_daemon_byte_identity;
          Alcotest.test_case "concurrent isolation" `Quick
            test_daemon_concurrent_isolation;
          Alcotest.test_case "garbage and disconnect" `Quick
            test_daemon_garbage_and_disconnect;
          Alcotest.test_case "oversized line" `Quick test_daemon_oversized_line;
          Alcotest.test_case "shutdown request" `Quick
            test_daemon_shutdown_request;
          Alcotest.test_case "stats" `Quick test_daemon_stats;
          Alcotest.test_case "overload shed" `Quick test_daemon_overload_shed;
          Alcotest.test_case "idle timeout" `Quick test_daemon_idle_timeout;
          Alcotest.test_case "connection cap" `Quick test_daemon_max_conns;
          Alcotest.test_case "hot reload" `Quick test_daemon_reload;
        ] );
    ]
