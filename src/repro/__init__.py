import sys
import zipimport

if "pyspark.worker_util" in sys.modules:
    # A Spark Python worker calls importlib.invalidate_caches() before every
    # task, and on CPython < 3.13 that makes each zipimporter re-read its whole
    # archive directory (pyspark.zip, the spark-core jar): ~0.2 s per task.
    # Those archives do not change while a worker lives and the program ships
    # no --py-files, so a worker keeps the directories it has read.
    zipimport.zipimporter.invalidate_caches = lambda self: None
