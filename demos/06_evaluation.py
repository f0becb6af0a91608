"""Few-shot classification, replayed offline.

Splits the validated corpus into train/val/test without separating
fake/true pairs, draws the 15 fixed shots from the train slice, asks the
recorded model about each test instance and scores the answers.
"""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from evidencia.evalkit import (
    build_config,
    classification_prompt,
    few_shot_classify,
    score,
    select_shots,
    split,
)
from evidencia.langid import TrigramDetector
from evidencia.providers import FixtureBackend, llm_generate
from evidencia.records import read_news
from evidencia.validation import run_validation

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def main():
    records = read_news(FIXTURES / "corpus.jsonl")
    validated, _ = run_validation(records, detector=TrigramDetector())

    train, val, test = split(validated)
    print(f"split {len(validated)} records into {len(train)}/{len(val)}/{len(test)}")

    shots = select_shots(build_config(train, "validated"), seed=0)
    instances = build_config(test, "validated")
    print(f"{len(shots)} shots drawn from train, {len(instances)} test instance(s)")

    sample = classification_prompt(instances[0], shots)
    print("\nprompt head for the first instance")
    for line in sample.splitlines()[:4]:
        print(f"  {line}")
    print(f"  ... ({len(sample.splitlines())} lines total)")

    backend = FixtureBackend(FIXTURES / "cassettes")
    generate = lambda head, rest: llm_generate(head + rest, backend)
    predictions, errors = few_shot_classify(instances, shots, generate)

    print("\nanswers")
    for inst, pred in zip(instances, predictions):
        verdict = pred if pred is not None else "abstained"
        print(f"  {inst.id:<10} gold={inst.label:<5} predicted={verdict}")

    result = score([inst.label for inst in instances], predictions)
    print(f"\naccuracy {result.accuracy:.2f}  macro-F1 {result.macro_f1:.2f}  "
          f"abstentions {result.abstentions}  provider errors {len(errors)}")


if __name__ == "__main__":
    main()
