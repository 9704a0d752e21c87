#!/usr/bin/env bash
# Run a fixed, seeded workflow of the package in the current directory's src/
# at one BLAS thread, leaving every file it writes in DIR: cohort CSVs and
# their caches, stage-1 and predictor checkpoints and their sidecars,
# training traces, eval metrics, ablation reports, the gradcheck stdout and
# every other command's stdout (stdout.txt), the footprint tables among it.
# Two trees that compute the same bits give DIRs that `diff -r` finds equal.
#
# Usage, from the root of a tree:  scripts/outputs.sh DIR
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 DIR" >&2; exit 1; }
[ -d src/mmsurv ] || { echo "$0: run it from the root of a tree (no src/mmsurv here)" >&2; exit 1; }
export PYTHONPATH="$PWD/src" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
mkdir -p "$1"
cd "$1"   # every path below is relative, so no output names the directory
rm -f stdout.txt
mmsurv() { python -m mmsurv "$@" --quiet >> stdout.txt; }

mmsurv footprint --strategy all --recon
mmsurv footprint --strategy all --embed-dim 8
mmsurv synth --n 300 --seed 1 --out train.csv
mmsurv synth --n 2000 --seed 2 --missing-rate 0 --out test.csv
mmsurv train-uni --data train.csv --seed 1 --stage1-epochs 2 --out-dir enc
for strategy in concat mean tensor; do
  mmsurv train-fuse --data train.csv --seed 1 --strategy "$strategy" --dropout --recon \
    --stage1-epochs 2 --fusion-epochs 2 --out-dir "fuse_$strategy"
done
mmsurv train-fuse --data train.csv --seed 1 --strategy tensor --dropout --recon --mode joint-finetune \
  --encoders enc --fusion-epochs 2 --out-dir joint_finetune
mmsurv train-fuse --data train.csv --seed 1 --strategy mean --dropout --recon --mode joint-scratch \
  --fusion-epochs 2 --out-dir joint_scratch
for model in fuse_concat fuse_mean fuse_tensor joint_finetune joint_scratch; do
  for scenario in complete pathology-missing gene-pathology-missing; do
    mmsurv eval --model "$model/model.json" --data test.csv --scenario "$scenario" --seed 1 \
      --bootstrap 20 --out "eval_${model}_$scenario.json"
  done
done
# a scenario that empties records: the embedding table is built from the applied cohort
mmsurv eval --model fuse_mean/model.json --data train.csv --scenario gene-pathology-missing --seed 1 \
  --bootstrap 20 --out eval_fuse_mean_train_gene-pathology-missing.json
# consecutive scenarios of one trained cell share the test cohort's embedding columns
mmsurv ablate --seed 1 --train train.csv --test test.csv --strategies concat --stage1-epochs 2 \
  --fusion-epochs 2 --bootstrap 10 --out-dir grid_concat
for workers in 1 2; do
  mmsurv ablate --seed 1 --n-train 150 --n-test 80 --strategies mean --stage1-epochs 2 --fusion-epochs 2 \
    --bootstrap 10 --workers "$workers" --out-dir "grid_w$workers"
done
python -m mmsurv gradcheck --seed 0 --instances 5 > gradcheck.txt
