"""End to end: corpus -> split -> train -> evaluate -> method comparison.

Everything here is also reachable from the command line:

    sonoclass synth --out corpus --seed 0
    sonoclass split --manifest corpus/manifest.tsv --out split.tsv --seed 0
    sonoclass train --manifest split.tsv --method bank --out model.txt
    sonoclass evaluate model.txt --manifest split.tsv
    sonoclass compare --manifest split.tsv --out reports/
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from sonoclass import (
    RunConfig,
    auto_split,
    evaluate_model,
    generate_corpus,
    load_model,
    save_model,
    train_model,
)
from sonoclass.report import evaluation_text

work = Path(tempfile.mkdtemp(prefix="sonoclass_demo_"))
print(f"working under {work}")

manifest = generate_corpus(work / "corpus", clips_per_class=12,
                           duration_s=0.5, sample_rate=16000, seed=0)
manifest = auto_split(manifest, seed=0)  # stratified 2/3 train, 1/3 test
print(f"{len(manifest.entries)} clips, classes {manifest.classes}")
print(f"{len(manifest.rows('train'))} train / {len(manifest.rows('test'))} test")

config = RunConfig(method="bank", seed=0, mi_top_k=128, svm_c=8.0, svm_gamma=0.5)
cache = work / "cache"

model = train_model(manifest, config, cache_dir=cache)
model_path = work / "model.txt"
save_model(model_path, model)
print(f"\ntrained {len(model.ovo.pair_models)} pair models, "
      f"saved to {model_path} ({model_path.stat().st_size // 1024} KiB)")

report = evaluate_model(load_model(model_path), manifest, cache_dir=cache)
print()
print(evaluation_text(report))

# the other methods, on the identical split
for method in ("single", "patches", "wavelet"):
    m = train_model(manifest, replace(config, method=method), cache_dir=cache)
    r = evaluate_model(m, manifest, cache_dir=cache)
    print(f"{method:8s} averaged accuracy: {r.averaged_accuracy:6.2f}%")
