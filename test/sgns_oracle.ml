(* The pre-fusion SGNS slice kernel (sgns_oracle_stubs.c): the same
   arguments as [Word2vec.Sgns.Kernel.train_slice], except that pairs
   are an array of (word, context) tuples. *)
external train_slice :
  Float.Array.t ->
  Float.Array.t ->
  Float.Array.t ->
  (int * int) array ->
  int array ->
  int array ->
  Float.Array.t ->
  unit = "caml_sgns_oracle_train_slice_bytes" "caml_sgns_oracle_train_slice"
[@@noalloc]
