(* Every input is generated by Corpus.Gen from the workload seed: the
   same seed gives byte-identical corpora, models, request lists and
   edit traces. The program only ever sees the generated text. *)

type scale = {
  model_files : int;  (** generated per language for a serve model *)
  predict_rps : float;  (** request rate the predict pools are sized for *)
  edit_rps : float;  (** request rate the edit traces are sized for *)
  edit_steps : int;  (** edits per session *)
  edit_funcs : int * int;  (** functions per session buffer *)
  train_files : int;  (** generated JavaScript files for [train] *)
  eval_files : int;  (** extra held-out files [train] evaluates on *)
  setup_reps : int;  (** set-ups per run; setup_s is their median *)
  warm_s : float;  (** untimed serve traffic before the timed phase *)
  replay_predicts : int;  (** predicts per connection a traced run replays *)
}

let full =
  {
    model_files = 80;
    (* About three times the fastest rates measured on a 2-vCPU host
       (218 req/s for predicts, 45 req/s in edit sessions), so a faster
       program still sends every input once. *)
    predict_rps = 600.;
    edit_rps = 120.;
    edit_steps = 12;
    edit_funcs = (18, 24);
    train_files = 150;
    eval_files = 150;
    setup_reps = 15;
    warm_s = 2.;
    replay_predicts = 80;
  }

let tiny =
  {
    model_files = 16;
    predict_rps = 100.;
    edit_rps = 20.;
    edit_steps = 3;
    edit_funcs = (3, 4);
    train_files = 24;
    eval_files = 8;
    setup_reps = 2;
    warm_s = 0.3;
    replay_predicts = 8;
  }

(* The four languages, in the order requests cycle through them. The
   first one is the daemon's default model. [modname] names the
   front-end module the parse layer metrics are reported under. *)
type lang = { lang : Pigeon.Lang.t; model : string; modname : string }

let langs =
  [|
    { lang = Pigeon.Lang.javascript; model = "default"; modname = "minijs" };
    { lang = Pigeon.Lang.java; model = "java"; modname = "minijava" };
    { lang = Pigeon.Lang.python; model = "python"; modname = "minipython" };
    { lang = Pigeon.Lang.csharp; model = "csharp"; modname = "minicsharp" };
  |]

(* Independent sub-seeds per purpose, all derived from the one seed. *)
let sub seed k = (seed * 7919) + (k * 104729) + 1

let sources ~seed ~n ?(dup_fraction = Corpus.Gen.default.Corpus.Gen.dup_fraction)
    (l : Pigeon.Lang.t) =
  Corpus.Gen.generate_sources
    { Corpus.Gen.default with Corpus.Gen.n_files = n; seed; dup_fraction }
    l.Pigeon.Lang.render_lang

(* Dedup, then split the way the evaluation harness does it (10%
   validation, 20% test, split seed 7). *)
let split sources =
  let entries =
    List.map (fun (path, source) -> { Corpus.Dataset.path; source }) sources
  in
  let s =
    Corpus.Dataset.split_corpus ~seed:7 (Corpus.Dataset.dedup entries)
  in
  let pairs xs =
    List.map (fun e -> (e.Corpus.Dataset.path, e.Corpus.Dataset.source)) xs
  in
  (pairs s.Corpus.Dataset.train, pairs s.Corpus.Dataset.test)

(* (train, held-out) splits of each serve model's corpus. *)
let model_corpus sc ~seed i =
  split (sources ~seed:(sub seed (10 + i)) ~n:sc.model_files langs.(i).lang)

(* [n] held-out files of one language: a separately seeded,
   duplicate-free corpus, minus any file that also occurs in [exclude]
   (the training corpus). *)
let held_out ~seed ~n (l : Pigeon.Lang.t) ~exclude =
  let seen = Hashtbl.create 64 in
  List.iter (fun (_, src) -> Hashtbl.replace seen (Digest.string src) ()) exclude;
  sources ~seed ~n ~dup_fraction:0. l
  |> List.filter (fun (_, src) ->
         let d = Digest.string src in
         if Hashtbl.mem seen d then false
         else begin
           Hashtbl.replace seen d ();
           true
         end)

(* [n] distinct held-out sources of language [i]. A few more are
   generated than needed, for the ones the filter drops. *)
let request_pool ~seed i ~n ~train =
  held_out ~seed:(sub seed (20 + i)) ~n:(n + (n / 16) + 4) langs.(i).lang ~exclude:train
  |> List.filteri (fun k _ -> k < n)
  |> List.map snd |> Array.of_list

(* Edit session [s]: its language cycles so each connection's
   consecutive sessions visit all four. *)
let edit_trace sc ~seed s =
  let i = s / 2 mod Array.length langs in
  let lo, hi = sc.edit_funcs in
  let config =
    {
      Corpus.Gen.default with
      Corpus.Gen.min_funcs = lo;
      max_funcs = hi;
      seed = sub seed (1000 + s);
    }
  in
  ( i,
    Array.of_list
      (Corpus.Gen.edit_trace ~steps:sc.edit_steps config
         langs.(i).lang.Pigeon.Lang.render_lang) )

(* [train]'s corpus: the train split, and the held-out split widened
   by [eval_files] more held-out files so the accuracies rest on more
   than a few dozen files. *)
let train_corpus sc ~seed =
  let lang = Pigeon.Lang.javascript in
  let train, test = split (sources ~seed:(sub seed 1) ~n:sc.train_files lang) in
  (train, test @ held_out ~seed:(sub seed 2) ~n:sc.eval_files lang ~exclude:(train @ test))

(* ---------- request lines ---------- *)

let line fields = Serve.Json.to_string (Serve.Json.Obj fields)
let id n = ("id", Serve.Json.Num (float_of_int n))
let str k v = (k, Serve.Json.Str v)

let predict_line ~id:n (l : lang) code =
  line
    [ str "op" "predict"; id n; str "lang" l.lang.Pigeon.Lang.name;
      str "code" code; str "model" l.model ]

let open_line ~id:n ~session (l : lang) code =
  line
    [ str "op" "open"; id n; str "session" session;
      str "lang" l.lang.Pigeon.Lang.name; str "code" code; str "model" l.model ]

let edit_line ~id:n ~session code =
  line [ str "op" "edit"; id n; str "session" session; str "code" code ]

let close_line ~id:n ~session =
  line [ str "op" "close"; id n; str "session" session ]

let stats_line ~id:n = line [ str "op" "stats"; id n ]
