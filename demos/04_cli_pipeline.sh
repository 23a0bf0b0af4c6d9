#!/bin/sh
# The same pipeline driven entirely through the command line:
# synthesize a corpus, check data sufficiency, pick a MAU length,
# train a model for one user, and evaluate it.
#
# Run from the repo root:  sh demos/04_cli_pipeline.sh [work-dir]
# (a fresh temporary directory when none is given)
set -e

work=${1:-$(mktemp -d)}
mkdir -p "$work"
echo "working in $work"

cat > "$work/specs.json" <<'EOF'
{
  "u1": [{"kind": "ar1", "params": {"phi": 0.9, "sigma": 1.0, "mean": 10.0}, "length": 20000, "seed": 101},
         {"kind": "ar1", "params": {"phi": 0.9, "sigma": 1.0, "mean": 10.0}, "length": 20000, "seed": 102}],
  "u2": [{"kind": "ar1", "params": {"phi": 0.5, "sigma": 2.0, "mean": 10.0}, "length": 20000, "seed": 201},
         {"kind": "ar1", "params": {"phi": 0.5, "sigma": 2.0, "mean": 10.0}, "length": 20000, "seed": 202}],
  "u3": [{"kind": "ar1", "params": {"phi": 0.2, "sigma": 4.0, "mean": 15.0}, "length": 20000, "seed": 301},
         {"kind": "ar1", "params": {"phi": 0.2, "sigma": 4.0, "mean": 15.0}, "length": 20000, "seed": 302}]
}
EOF

echo "== synth =="
mouseauth synth --out "$work/corpus" "$work/specs.json"

echo "== sufficiency (u1) =="
mouseauth sufficiency --user u1 --out "$work/reports" "$work"/corpus/u1/*.csv

echo "== apen (u1) =="
mouseauth apen --user u1 --out "$work/reports" "$work"/corpus/u1/*.csv

cat > "$work/train.json" <<'EOF'
{"mau_length": 30, "epochs": 20, "conv_channels": 8, "gru_hidden": 16}
EOF

echo "== train (legit user u1) =="
mouseauth train --config "$work/train.json" --legit-user u1 \
    --out "$work/reports" "$work/corpus"

echo "== eval =="
mouseauth eval --config "$work/train.json" --legit-user u1 \
    --out "$work/reports" "$work/reports/model_u1.json" "$work/corpus"

echo "artifacts:"
ls -R "$work/reports"
