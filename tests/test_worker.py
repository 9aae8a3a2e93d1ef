"""A Spark Python worker that has imported ``repro`` keeps the zip-archive
directories it has read when pyspark invalidates the import caches before a
task; the driver's import machinery is left as the standard library has it."""
import importlib
import zipfile
import zipimport


def test_worker_invalidate_caches_reads_no_archive(spark):
    def probe(batches):  # nested, so it is pickled by value, not by module
        import sys

        import pandas as pd

        importlib.import_module("repro")
        reads = 0
        read_directory = zipimport._read_directory

        def counted(archive):
            nonlocal reads
            reads += 1
            return read_directory(archive)

        zipimport._read_directory = counted
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = read_directory
        zips = sum(isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values())
        for _ in batches:
            pass
        yield pd.DataFrame({"reads": [reads], "zips": [zips]})

    [row] = spark.range(0, 1, 1, 1).mapInPandas(probe, "reads long, zips long").collect()
    assert row["zips"] > 0  # the worker imports from zip archives
    assert row["reads"] == 0


def test_driver_invalidate_caches_rereads_archive(spark, tmp_path, monkeypatch):
    importlib.import_module("repro")
    assert zipimport.zipimporter.invalidate_caches.__module__ == "zipimport"
    archive = tmp_path / "m.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("m.py", "")
    importer = zipimport.zipimporter(str(archive))
    reads = []
    read_directory = zipimport._read_directory
    monkeypatch.setattr(zipimport, "_read_directory", lambda a: reads.append(a) or read_directory(a))
    importer.invalidate_caches()
    assert reads == [str(archive)]
